/**
 * @file
 * Fixed-capacity, order-preserving circular FIFO.
 *
 * The hot per-tick queues of the simulator are small and bounded by
 * credits or queue capacities: the router input/output FIFOs, the
 * endpoint delivery queues and PE outbox (as PacketRing), and the
 * vault controller's read queue, write buffer and read-response
 * queue (Ring<MemRequest> / Ring<MemResponse>). A contiguous ring
 * with power-of-two capacity replaces the std::deque chunk machinery
 * with two indices, a mask and no steady-state allocation:
 * operator[] is one add and one AND, and a mid-queue erase(idx, n)
 * (FR-FCFS out-of-order service) shifts whichever side of the gap is
 * shorter. The ring grows (doubling, relinearizing) only if a
 * producer exceeds the initial capacity hint — production credit
 * checks make that unreachable for the NoC queues, but unit tests
 * drive queues directly.
 */

#ifndef NEUROCUBE_NOC_PACKET_RING_HH
#define NEUROCUBE_NOC_PACKET_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "noc/packet.hh"

namespace neurocube
{

/** A circular FIFO with deque-compatible accessors. */
template <typename T>
class Ring
{
  public:
    Ring() = default;

    /** @param capacity_hint expected bound on resident elements */
    explicit Ring(unsigned capacity_hint)
    {
        buf_.resize(roundUp(capacity_hint));
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    const T &front() const { return buf_[head_]; }
    T &front() { return buf_[head_]; }

    /** The i-th element from the front. @pre i < size() */
    const T &
    operator[](size_t i) const
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    T &
    operator[](size_t i)
    {
        return buf_[(head_ + i) & (buf_.size() - 1)];
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
    }

    void
    push_back(const T &value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = value;
        ++size_;
    }

    /**
     * Remove elements [idx, idx + n), keeping the order of the rest.
     * Moves whichever side of the gap holds fewer elements, so
     * erasing at the front is a head bump and moves nothing.
     * @pre idx + n <= size()
     */
    void
    erase(size_t idx, size_t n)
    {
        const size_t after = size_ - idx - n;
        if (idx < after) {
            // Slide the front side [0, idx) back by n.
            for (size_t i = idx; i-- > 0;)
                (*this)[i + n] = (*this)[i];
            head_ = (head_ + n) & (buf_.size() - 1);
        } else {
            // Slide the back side [idx + n, size) forward by n.
            for (size_t i = idx; i < idx + after; ++i)
                (*this)[i] = (*this)[i + n];
        }
        size_ -= n;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    static size_t
    roundUp(size_t n)
    {
        size_t cap = 4;
        while (cap < n)
            cap *= 2;
        return cap;
    }

    void
    grow()
    {
        std::vector<T> wider(buf_.empty() ? 4 : buf_.size() * 2);
        for (size_t i = 0; i < size_; ++i)
            wider[i] = std::move((*this)[i]);
        head_ = 0;
        buf_ = std::move(wider);
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
};

/** The NoC's packet FIFO. */
using PacketRing = Ring<Packet>;

} // namespace neurocube

#endif // NEUROCUBE_NOC_PACKET_RING_HH
