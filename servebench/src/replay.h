/**
 * @file
 * Serial replays of a served trace through each layer's public API.
 *
 * The batcher hides its layers behind one run() call, so the traced
 * run replays the same requests — same positions, same chunking, the
 * same prefix-cache adoptions the measured run made — serially at
 * three levels, each one level lower than the last:
 *
 *  - model:  ModelEngine feed()/drain() per prefill chunk and decode
 *            token, with PrefixIndex acquire/publish/release and
 *            ModelWorkload materialization/staging around it;
 *  - layer:  LayerEngine appendToken() + prefillPosition()/decode()
 *            per (position, layer);
 *  - decode: KvCache appendToken() + DecodeEngine prefillGroup()/
 *            stepGroup() per (position, layer, KV head).
 *
 * Every replay mixes its outputs exactly like the batcher's session
 * sink, so each one must reproduce the served run's decode and
 * prefill checksums — proof that the replayed work is the served
 * work. Spans go both into an in-memory SpanTree (for self times)
 * and through obs::ScopedSpan into the Chrome trace.
 */

#ifndef SERVEBENCH_REPLAY_H
#define SERVEBENCH_REPLAY_H

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serving/continuous_batcher.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {

enum class ReplayLevel
{
    kModel,
    kLayer,
    kDecode,
};

struct ReplayResult
{
    ReplayLevel level = ReplayLevel::kModel;
    std::map<std::string, SpanTree::Totals> totals;
    uint64_t checksum = 0;         //!< XOR of session decode checksums
    uint64_t prefill_checksum = 0; //!< XOR of session prefill checksums
    uint64_t prefill_positions = 0; //!< prompt positions computed
    uint64_t decode_tokens = 0;
    // DecodeStep sums (decode level only).
    uint64_t keys = 0;     //!< keys scanned, per query head
    uint64_t retained = 0; //!< retentions, summed over query heads
    uint64_t planes = 0;   //!< bit planes consumed

    double
    seconds(const std::string &name) const
    {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total_ns * 1e-9;
    }
    double
    selfSeconds(const std::string &name) const
    {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.self_ns * 1e-9;
    }
    int64_t
    count(const std::string &name) const
    {
        const auto it = totals.find(name);
        return it == totals.end() ? 0 : it->second.count;
    }
};

/**
 * Replays @p trace at every level on the calling thread, one request
 * at a time (model, layer and decode results, in that order). Each
 * level keeps its own prefix index; @p hit_tokens (index-aligned
 * with the trace) caps each request's prefix adoption at what the
 * served run adopted, so the replays do the served run's work rather
 * than the serial schedule's luckier hit pattern.
 */
std::array<ReplayResult, 3>
replayAll(const Workload &w, const Geometry &g,
          const std::vector<pade::ServingRequest> &trace,
          const std::vector<int> &hit_tokens);

} // namespace servebench

#endif // SERVEBENCH_REPLAY_H
