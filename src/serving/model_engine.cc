#include "serving/model_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace pade {

namespace {

// Step-utilization telemetry: every step records the wall time the
// *width* of the step could have used (lanes x step wall) and the time
// its units actually computed. The bubble ratio of any snapshot delta
// is then
//     1 - model.unit_busy_us / model.round_capacity_us
// — 0 when every lane of every step was full, approaching 1 as steps
// starve (thin steps, cores > units).
struct ModelMetrics
{
    obs::Counter &rounds;
    obs::Counter &units;
    obs::Counter &unit_busy_us;
    obs::Counter &round_capacity_us;

    static ModelMetrics &
    get()
    {
        static ModelMetrics m{
            obs::Registry::instance().counter("model.rounds"),
            obs::Registry::instance().counter("model.units"),
            obs::Registry::instance().counter("model.unit_busy_us"),
            obs::Registry::instance().counter(
                "model.round_capacity_us"),
        };
        return m;
    }
};

int64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The calling thread's scratch engine for score units: scratch
 * belongs to the worker, so its memory scales with the worker count,
 * not with the number of sessions. Re-armed for the caller's config;
 * its statistics are handed back per unit. A score unit never waits
 * on the pool, so no thread re-enters its engine mid-unit by work
 * stealing.
 */
DecodeEngine &
scratchEngine(const LayerEngineConfig &lc)
{
    thread_local DecodeEngine engine;
    engine.reconfigure(lc.pade, lc.retention);
    return engine;
}

} // namespace

ModelEngine::ModelEngine(const ModelEngineConfig &cfg,
                         std::span<const float> v_scales,
                         std::span<const float> logit_scales,
                         Stager stager, Sink sink)
    : cfg_(cfg), v_scales_(v_scales.begin(), v_scales.end()),
      logit_scales_(logit_scales.begin(), logit_scales.end()),
      stager_(std::move(stager)), sink_(std::move(sink)),
      stage_k_(cfg.layer.kv_heads, cfg.layer.head_dim),
      stage_v_(cfg.layer.kv_heads, cfg.layer.head_dim)
{
    PADE_CHECK_GE(cfg_.layers, 1);
    PADE_CHECK_GE(cfg_.layer.pade.tile_bc, 1);
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    PADE_CHECK_EQ(v_scales_.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    PADE_CHECK_EQ(logit_scales_.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    PADE_CHECK(stager_ != nullptr);
    PADE_CHECK(sink_ != nullptr);

    layers_.reserve(static_cast<std::size_t>(cfg_.layers));
    for (int l = 0; l < cfg_.layers; l++)
        layers_.emplace_back(
            cfg_.layer,
            std::span<const float>(v_scales_)
                .subspan(static_cast<std::size_t>(l) * kv, kv));
}

void
ModelEngine::feed(int pos, int prompt_len)
{
    // Contiguous feed from the frontier keeps every layer's append
    // sequence gapless — the property the whole cache layer assumes.
    PADE_CHECK_EQ(pos, fed_);
    PADE_CHECK_GE(prompt_len, 0);
    fed_++;
    queue_.push_back(prompt_len);
}

std::span<const float>
ModelEngine::logitScales(int l) const
{
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    return std::span<const float>(logit_scales_)
        .subspan(static_cast<std::size_t>(l) * kv, kv);
}

bool
ModelEngine::openChunk()
{
    if (queue_.empty())
        return false;
    Chunk &c = chunk_;
    c.first = fed_ - static_cast<int>(queue_.size());
    c.prompt_len = queue_.front();
    // A prefill chunk is every queued prompt position of the same
    // prompt; a decode position (and every position of the serial
    // oracle) is a chunk of one.
    int n = 1;
    if (cfg_.pipeline && c.prefill())
        while (n < static_cast<int>(queue_.size()) &&
               c.first + n < c.prompt_len &&
               queue_[static_cast<std::size_t>(n)] == c.prompt_len)
            n++;
    queue_.erase(queue_.begin(), queue_.begin() + n);
    c.n = n;
    c.layer = 0;
    c.scoring = false;
    const int tile = cfg_.layer.pade.tile_bc;
    c.tiles = (n + tile - 1) / tile;

    const auto cells = static_cast<std::size_t>(n) *
        static_cast<std::size_t>(cfg_.layers);
    if (c.outs.size() != cells) {
        c.outs.clear();
        c.outs.reserve(cells);
        for (std::size_t i = 0; i < cells; i++)
            c.outs.emplace_back(cfg_.layer.heads, cfg_.layer.head_dim);
        c.q.clear();
        for (int i = 0; i < n; i++)
            c.q.emplace_back(cfg_.layer.heads, cfg_.layer.head_dim);
    }
    c.steps.assign(cells, LayerStep{});
    if (stepKind() != UnitKind::kSerial && c.prefill()) {
        const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
        c.head_steps.assign(static_cast<std::size_t>(n) * kv,
                            DecodeStep{});
        c.tile_stats.assign(kv * static_cast<std::size_t>(c.tiles),
                            PruneStats{});
    }
    return true;
}

ModelEngine::UnitKind
ModelEngine::stepKind() const
{
    if (!cfg_.pipeline)
        return UnitKind::kSerial;
    if (chunk_.n == 1 && !chunk_.prefill())
        return UnitKind::kDecode;
    return chunk_.scoring ? UnitKind::kScore : UnitKind::kStage;
}

int
ModelEngine::collectUnits()
{
    PADE_CHECK(!round_open_);
    if (chunk_.n == 0 && !openChunk())
        return 0;
    round_open_ = true;
    return stepKind() == UnitKind::kScore
        ? cfg_.layer.kv_heads * chunk_.tiles
        : 1;
}

void
ModelEngine::runPosition(int l, ThreadPool *pool)
{
    Chunk &c = chunk_;
    const int pos = c.first;
    MatrixI8 &q = c.q.front();
    stager_(l, pos, stage_k_, stage_v_, q);

    LayerEngine &layer = layers_[static_cast<std::size_t>(l)];
    layer.appendToken(stage_k_, stage_v_);
    const auto cell = static_cast<std::size_t>(l);
    if (pos < c.prompt_len) {
        c.steps[cell] = layer.prefillPosition(
            q, pos, c.prompt_len, logitScales(l), c.outs[cell], pool);
    } else {
        c.steps[cell] =
            layer.decode(q, logitScales(l), c.outs[cell], pool);
        layer.evict();
    }
}

void
ModelEngine::stageChunk()
{
    Chunk &c = chunk_;
    LayerEngine &layer = layers_[static_cast<std::size_t>(c.layer)];
    for (int i = 0; i < c.n; i++) {
        stager_(c.layer, c.first + i, stage_k_, stage_v_,
                c.q[static_cast<std::size_t>(i)]);
        layer.appendToken(stage_k_, stage_v_);
    }
}

void
ModelEngine::scoreTile(int u)
{
    Chunk &c = chunk_;
    const int kv = u / c.tiles;
    const int tile = u % c.tiles;
    const int group = cfg_.layer.groupSize();
    const int lo = tile * cfg_.layer.pade.tile_bc;
    const int hi = std::min(c.n, lo + cfg_.layer.pade.tile_bc);
    const KvCache &cache = layers_[static_cast<std::size_t>(c.layer)]
                               .cache(kv);
    const float scale =
        logitScales(c.layer)[static_cast<std::size_t>(kv)];
    const auto kvs = static_cast<std::size_t>(cfg_.layer.kv_heads);

    DecodeEngine &eng = scratchEngine(cfg_.layer);
    for (int i = lo; i < hi; i++) {
        const auto si = static_cast<std::size_t>(i);
        c.head_steps[si * kvs + static_cast<std::size_t>(kv)] =
            eng.prefillGroup(
                cache, c.q[si], kv * group, group, c.first + i,
                c.prompt_len, scale,
                c.outs[static_cast<std::size_t>(i * cfg_.layers +
                                                c.layer)],
                kv * group);
    }
    c.tile_stats[static_cast<std::size_t>(u)] = eng.takeStats();
}

void
ModelEngine::runCollectedUnit(int u, ThreadPool *pool)
{
    PADE_DCHECK(round_open_);
    const UnitKind kind = stepKind();
    const auto run = [&] {
        switch (kind) {
        case UnitKind::kSerial:
            for (int l = 0; l < cfg_.layers; l++)
                runPosition(l, pool);
            break;
        case UnitKind::kDecode: runPosition(chunk_.layer, pool); break;
        case UnitKind::kStage: stageChunk(); break;
        case UnitKind::kScore: scoreTile(u); break;
        }
    };
    if (kind == UnitKind::kSerial) {
        run();
        return;
    }
    if constexpr (obs::kTelemetryEnabled) {
        static constexpr const char *kKindNames[] = {"stage", "score",
                                                     "decode"};
        const obs::ScopedSpan span(
            "model.unit",
            {obs::traceText("kind",
                            kKindNames[static_cast<int>(kind)]),
             {"layer", chunk_.layer},
             {"positions", chunk_.n},
             {"tile", kind == UnitKind::kScore ? u % chunk_.tiles
                                                : -1}});
        const auto t0 = std::chrono::steady_clock::now();
        run();
        ModelMetrics::get().unit_busy_us.add(
            static_cast<uint64_t>(microsSince(t0)));
    } else {
        run();
    }
}

void
ModelEngine::completeRound()
{
    PADE_CHECK(round_open_);
    round_open_ = false;
    Chunk &c = chunk_;
    switch (stepKind()) {
    case UnitKind::kSerial:
        c.layer = cfg_.layers;
        break;
    case UnitKind::kDecode:
        c.layer++;
        break;
    case UnitKind::kStage:
        c.scoring = true;
        break;
    case UnitKind::kScore: {
        // Post-barrier, on this thread, in ascending (KV head, tile)
        // order: the scratch engines' counters go to the KV head
        // they scored for, and each position's LayerStep folds its
        // KV heads the way LayerEngine does.
        LayerEngine &layer = layers_[static_cast<std::size_t>(c.layer)];
        const int kvs = cfg_.layer.kv_heads;
        for (int kv = 0; kv < kvs; kv++)
            for (int t = 0; t < c.tiles; t++)
                layer.engine(kv).addStats(
                    c.tile_stats[static_cast<std::size_t>(
                        kv * c.tiles + t)]);
        for (int i = 0; i < c.n; i++) {
            LayerStep &st = c.steps[static_cast<std::size_t>(
                i * cfg_.layers + c.layer)];
            for (int kv = 0; kv < kvs; kv++)
                st.add(c.head_steps[static_cast<std::size_t>(
                    i * kvs + kv)]);
        }
        c.scoring = false;
        c.layer++;
        break;
    }
    }
    if (c.layer == cfg_.layers)
        retireChunk();
}

void
ModelEngine::retireChunk()
{
    Chunk &c = chunk_;
    const auto layers = static_cast<std::size_t>(cfg_.layers);
    for (int i = 0; i < c.n; i++) {
        const auto at = static_cast<std::size_t>(i) * layers;
        TokenResult result;
        result.pos = c.first + i;
        result.prompt_len = c.prompt_len;
        result.outs = std::span<const MatrixF>(c.outs).subspan(at, layers);
        result.steps =
            std::span<const LayerStep>(c.steps).subspan(at, layers);
        sink_(result);
        completed_++;
    }
    // Chunk buffers die with the chunk; a decode position's are kept
    // for the next one.
    if (c.n > 1)
        c = Chunk{};
    c.n = 0;
}

bool
ModelEngine::advance(ThreadPool *pool)
{
    const int n = collectUnits();
    if (n == 0)
        return false;
    if (!cfg_.pipeline) {
        runCollectedUnit(0, pool);
        completeRound();
        return true;
    }
    const obs::ScopedSpan round_span("model.round", {{"units", n}});
    const bool fanout = pool && pool->threadCount() > 1 && n > 1;
    int width = 1;
    if constexpr (obs::kTelemetryEnabled) {
        if (fanout) {
            // Honest capacity width: workers this step can actually
            // claim, not min(threads, n). When the pool is shared —
            // the per-session batcher fans sessions over the same
            // pool that runs these units — most workers are busy
            // with OTHER sessions' steps, and charging their time
            // as idle capacity would overstate the bubble ratio.
            // Subtract the occupants seen at step start (minus this
            // caller's own slot when it runs inside a pool task).
            const int busy_others = std::max(
                0,
                pool->busyWorkers() - (ThreadPool::inTask() ? 1 : 0));
            width =
                std::clamp(pool->threadCount() - busy_others, 1, n);
        }
    }
    const auto round_t0 = std::chrono::steady_clock::now();
    const auto unit = [&](int i) { runCollectedUnit(i, pool); };
    if (fanout)
        parallelFor(*pool, n, unit);
    else
        for (int i = 0; i < n; i++)
            unit(i);
    if constexpr (obs::kTelemetryEnabled) {
        ModelMetrics &m = ModelMetrics::get();
        m.rounds.add(1);
        m.units.add(static_cast<uint64_t>(n));
        m.round_capacity_us.add(
            static_cast<uint64_t>(width) *
            static_cast<uint64_t>(microsSince(round_t0)));
    }
    completeRound();
    return true;
}

void
ModelEngine::drain(ThreadPool *pool)
{
    while (advance(pool)) {
    }
}

void
ModelEngine::adoptPrefixPages(
    std::span<const std::shared_ptr<const KvPage>> pages)
{
    // Adoption splices pages at the frontier; with positions pending
    // the frontier would move under them.
    PADE_CHECK(queue_.empty() && chunk_.n == 0);
    const auto kv = static_cast<std::size_t>(cfg_.layer.kv_heads);
    PADE_CHECK_EQ(pages.size(),
                  static_cast<std::size_t>(cfg_.layers) * kv);
    for (int l = 0; l < cfg_.layers; l++)
        layers_[static_cast<std::size_t>(l)].adoptSharedPages(
            pages.subspan(static_cast<std::size_t>(l) * kv, kv));
    fed_ += cfg_.layer.page_tokens;
    frontier_ += cfg_.layer.page_tokens;
}

void
ModelEngine::sharePrefixPages(
    int page, std::vector<std::shared_ptr<const KvPage>> &out) const
{
    for (const LayerEngine &layer : layers_)
        layer.sharePages(page, out);
}

PruneStats
ModelEngine::stats() const
{
    PruneStats sum;
    for (const LayerEngine &layer : layers_)
        sum += layer.stats();
    return sum;
}

std::size_t
ModelEngine::bytesUsed() const
{
    std::size_t bytes = 0;
    for (const LayerEngine &layer : layers_)
        bytes += layer.bytesUsed();
    return bytes;
}

} // namespace pade
