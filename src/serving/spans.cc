#include "serving/spans.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace neurocube
{

void
writeRequestSpans(std::ostream &os, const ServingResult &result)
{
    for (const RequestRecord &r : result.requests) {
        os << "{\"id\":" << r.id << ",\"arrival\":" << r.arrival
           << ",\"admit\":" << r.admit
           << ",\"dispatch\":" << r.dispatch
           << ",\"completion\":" << r.completion
           << ",\"batch\":" << r.batch << ",\"lanes\":" << r.lanes
           << ",\"dropped\":" << (r.dropped ? "true" : "false")
           << ",\"queue_ticks\":" << r.queueTicks()
           << ",\"service_ticks\":" << r.serviceTicks()
           << ",\"latency\":" << r.latency() << "}\n";
    }
}

bool
writeRequestSpansJsonl(const std::string &path,
                       const ServingResult &result)
{
    std::ofstream out(path);
    if (!out.is_open()) {
        std::fprintf(stderr,
                     "warning: cannot write request spans '%s'\n",
                     path.c_str());
        return false;
    }
    writeRequestSpans(out, result);
    return out.good();
}

} // namespace neurocube
