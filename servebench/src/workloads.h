/**
 * @file
 * The benchmark's three traffic shapes and their seeded traces.
 *
 * Every workload serves the same GQA geometry (8 query heads on 2 KV
 * heads, head_dim 64, 2 layers so co-scheduled waves have units to
 * merge) with 64-token prefill chunks and KV pages. Traces are *stratified*: prompt and decode lengths are the
 * quantiles of their distributions jittered and shuffled by the seed,
 * so two seeds give different requests but near-equal total work —
 * the per-seed spread of throughput then measures the host, not the
 * luck of the draw.
 */

#ifndef SERVEBENCH_WORKLOADS_H
#define SERVEBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "serving/continuous_batcher.h"
#include "workload/generator.h"

namespace servebench {

struct Geometry
{
    int layers = 2;
    int heads = 8;
    int kv_heads = 2;
    int head_dim = 64;
    int bits = 8;
};

struct Workload
{
    std::string name;
    bool open_loop = false; //!< Poisson arrivals; else all at t = 0
    int requests = 100;     //!< per rep (>= 100 keeps p90 honest)
    int slots = 8;          //!< BatcherOptions::max_active
    int suffix_min = 32;    //!< private prompt tokens, log-uniform
    int suffix_max = 64;
    int prefix_families = 0; //!< shared-prefix identities (0 = none)
    int prefix_tokens = 0;   //!< page-aligned shared prompt prefix
    int decode_min = 8;      //!< decode steps, uniform
    int decode_max = 16;
    /** Share of requests at priority 1 (the rest at 0). Uneven on
     *  purpose: a 50/50 split puts the TTFT median on the boundary
     *  between the two classes' waits. */
    double urgent_share = 0.0;
    double rate_per_s = 0.0; //!< open loop only
    bool prefix_cache = false;
    /** Prefix-cache budget, in shared-prefix chains; 0 = unbounded. */
    int cached_families = 0;
};

/** The named workloads, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** Workload @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Shrinks @p w to a seconds-scale smoke run (tests). */
Workload smokeSize(Workload w);

/** The seeded trace of rep @p rep of an invocation seeded @p seed. */
std::vector<pade::ServingRequest> makeTrace(const Workload &w,
                                            uint64_t seed, int rep);

/** Batcher options serving @p w at @p threads workers. */
pade::BatcherOptions batcherOptions(const Workload &w,
                                    const Geometry &g, int threads);

} // namespace servebench

#endif // SERVEBENCH_WORKLOADS_H
