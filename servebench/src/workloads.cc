#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "serving/kv_cache.h"

namespace servebench {

namespace {

/** Prefill chunk and KV page size; prefixes are multiples of it. */
constexpr int kChunkTokens = 64;

std::vector<Workload>
buildWorkloads()
{
    std::vector<Workload> out;

    Workload prefill;
    prefill.name = "prefill_shared";
    prefill.requests = 100;
    prefill.slots = 8;
    prefill.suffix_min = 32;
    prefill.suffix_max = 192;
    prefill.prefix_families = 3;
    prefill.prefix_tokens = 128;
    prefill.decode_min = 6;
    prefill.decode_max = 14;
    prefill.prefix_cache = true;
    out.push_back(prefill);

    Workload decode;
    decode.name = "decode_stream";
    decode.requests = 100;
    decode.slots = 16;
    decode.suffix_min = 16;
    decode.suffix_max = 64;
    decode.decode_min = 64;
    decode.decode_max = 128;
    out.push_back(decode);

    Workload mixed;
    mixed.name = "mixed_open_loop";
    mixed.open_loop = true;
    mixed.requests = 100;
    mixed.slots = 8;
    mixed.suffix_min = 16;
    mixed.suffix_max = 160;
    mixed.prefix_families = 6;
    mixed.prefix_tokens = 64;
    mixed.decode_min = 8;
    mixed.decode_max = 32;
    mixed.urgent_share = 0.2;
    mixed.rate_per_s = 400.0; // ~6x the 4-worker capacity
    mixed.prefix_cache = true;
    mixed.cached_families = 3; // fewer than it draws from: evictions
    out.push_back(mixed);
    return out;
}

/** Fisher-Yates with the benchmark's seeded generator. */
template <typename T>
void
shuffle(std::vector<T> &v, pade::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** n jittered quantiles of U(0, 1), shuffled. */
std::vector<double>
stratified(int n, pade::Rng &rng)
{
    std::vector<double> u(static_cast<std::size_t>(n));
    for (int i = 0; i < n; i++)
        u[static_cast<std::size_t>(i)] =
            (i + rng.uniform()) / static_cast<double>(n);
    shuffle(u, rng);
    return u;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = buildWorkloads();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

Workload
smokeSize(Workload w)
{
    w.requests = 12;
    w.slots = std::min(w.slots, 4);
    w.suffix_max = std::max(w.suffix_min, w.suffix_max / 4);
    w.decode_max = std::max(w.decode_min, w.decode_max / 4);
    w.decode_min = std::min(w.decode_min, w.decode_max);
    return w;
}

std::vector<pade::ServingRequest>
makeTrace(const Workload &w, uint64_t seed, int rep)
{
    uint64_t state = seed * 0x100000001b3ULL + static_cast<uint64_t>(rep);
    const uint64_t trace_seed = pade::splitMix64(state);
    pade::Rng rng(trace_seed);

    const int n = w.requests;
    const std::vector<double> u_prompt = stratified(n, rng);
    const std::vector<double> u_decode = stratified(n, rng);
    const std::vector<double> u_class = stratified(n, rng);
    const std::vector<double> u_family = stratified(n, rng);

    // Open loop: exponential gaps rescaled to the nominal mean, so the
    // offered load is exactly rate_per_s and only its burstiness
    // varies with the seed.
    std::vector<double> gaps(static_cast<std::size_t>(n), 0.0);
    if (w.open_loop) {
        double sum = 0.0;
        for (double &g : gaps) {
            g = rng.exponential(1.0);
            sum += g;
        }
        const double mean_ms = 1000.0 / w.rate_per_s;
        for (double &g : gaps)
            g *= mean_ms * n / sum;
    }

    const double log_lo = std::log(static_cast<double>(w.suffix_min));
    const double log_hi =
        std::log(static_cast<double>(w.suffix_max) + 1.0);
    std::vector<pade::ServingRequest> trace;
    trace.reserve(static_cast<std::size_t>(n));
    double now_ms = 0.0;
    for (int i = 0; i < n; i++) {
        const auto k = static_cast<std::size_t>(i);
        pade::ServingRequest r;
        now_ms += gaps[k];
        r.arrival_ms = now_ms;
        r.prompt_len = std::clamp(
            static_cast<int>(
                std::exp(log_lo + u_prompt[k] * (log_hi - log_lo))),
            w.suffix_min, w.suffix_max);
        r.decode_steps = std::min(
            w.decode_max,
            w.decode_min +
                static_cast<int>(u_decode[k] *
                                 (w.decode_max - w.decode_min + 1)));
        r.priority = u_class[k] < w.urgent_share ? 1 : 0;
        if (w.prefix_families > 0) {
            const int family = std::min(
                w.prefix_families - 1,
                static_cast<int>(u_family[k] * w.prefix_families));
            uint64_t fs = trace_seed ^
                (0x70726566697865ULL +
                 static_cast<uint64_t>(family) * 0x9e3779b97f4a7c15ULL);
            r.prefix_seed = pade::splitMix64(fs);
            r.prefix_len = w.prefix_tokens;
            r.prompt_len += w.prefix_tokens;
        }
        uint64_t rs = trace_seed + static_cast<uint64_t>(i + 1) *
                                       0x9e3779b97f4a7c15ULL;
        r.seed = pade::splitMix64(rs);
        trace.push_back(r);
    }
    return trace;
}

pade::BatcherOptions
batcherOptions(const Workload &w, const Geometry &g, int threads)
{
    pade::BatcherOptions opt;
    opt.threads = threads;
    opt.max_active = w.slots;
    opt.prefill_chunk = kChunkTokens;
    opt.layers = g.layers;
    opt.heads = g.heads;
    opt.kv_heads = g.kv_heads;
    opt.head_dim = g.head_dim;
    opt.bits = g.bits;
    opt.page_tokens = kChunkTokens;
    opt.prefix_cache = w.prefix_cache;
    if (w.prefix_cache && w.cached_families > 0) {
        pade::KvCacheConfig kc;
        kc.head_dim = g.head_dim;
        kc.bits = g.bits;
        kc.page_tokens = kChunkTokens;
        kc.subgroup = opt.pade.subgroup;
        kc.muxes = opt.pade.muxes;
        const pade::KvPage page(kc);
        const std::size_t chain_bytes = pade::kvPageBytes(page) *
            static_cast<std::size_t>(g.layers * g.kv_heads) *
            static_cast<std::size_t>(w.prefix_tokens / kChunkTokens);
        opt.prefix_cache_bytes =
            chain_bytes * static_cast<std::size_t>(w.cached_families);
    }
    return opt;
}

} // namespace servebench
