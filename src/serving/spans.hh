/**
 * @file
 * JSONL exporter for per-request serving spans.
 *
 * One JSON object per line, one line per offered request, in arrival
 * order — the RequestRecord lifecycle (enqueue/admit/dispatch/
 * complete absolute ticks plus the derived queue/service/latency
 * ticks), machine-joinable with the SLO report and the Chrome
 * "requests" track by request id. JSONL so sweep tooling can stream
 * and concatenate runs without a JSON parser. tests/test_serving.cc
 * parses the format back (write -> read == identity, and percentiles
 * recomputed from spans match the ServingReport).
 */

#ifndef NEUROCUBE_SERVING_SPANS_HH
#define NEUROCUBE_SERVING_SPANS_HH

#include <iosfwd>
#include <string>

#include "serving/server.hh"

namespace neurocube
{

/** Write one span object per request (arrival order) to @p os. */
void writeRequestSpans(std::ostream &os, const ServingResult &result);

/**
 * Write the spans file for a run.
 *
 * @param path destination file
 * @param result the run's per-request records
 * @return true on success (warns and returns false on I/O failure)
 */
bool writeRequestSpansJsonl(const std::string &path,
                            const ServingResult &result);

} // namespace neurocube

#endif // NEUROCUBE_SERVING_SPANS_HH
