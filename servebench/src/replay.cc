#include "replay.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>
#include <span>

#include "common/rng.h"
#include "obs/trace.h"
#include "serving/decode_engine.h"
#include "serving/kv_cache.h"
#include "serving/layer_engine.h"
#include "serving/model_engine.h"
#include "serving/prefix_index.h"

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;
using PagePtr = std::shared_ptr<const pade::KvPage>;

int64_t
nsSince(Clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0)
        .count();
}

/** The batcher's session-sink mixing, replicated bit for bit. */
uint64_t
mixMatrix(uint64_t acc, const pade::MatrixF &m)
{
    for (int r = 0; r < m.rows(); r++)
        for (float v : m.row(r)) {
            uint64_t state = acc + std::bit_cast<uint32_t>(v);
            acc = pade::splitMix64(state);
        }
    return acc;
}

/** A span in both recorders: the SpanTree and the Chrome trace. */
class TracedSpan
{
  public:
    TracedSpan(SpanTree &tree, const char *name, int64_t request)
        : tree_(tree), parent_(tree.current()),
          id_(tree.open(name, request)),
          obs_(name, {{"request", request}, {"parent", parent_}}),
          t0_(Clock::now())
    {
    }
    ~TracedSpan() { tree_.close(id_, nsSince(t0_)); }
    TracedSpan(const TracedSpan &) = delete;
    TracedSpan &operator=(const TracedSpan &) = delete;

  private:
    SpanTree &tree_;
    int parent_;
    int id_;
    pade::obs::ScopedSpan obs_;
    Clock::time_point t0_;
};

/** Times its scope as leaf @p name of the innermost open span. */
class LeafTimer
{
  public:
    LeafTimer(SpanTree &tree, const char *name)
        : tree_(tree), name_(name), t0_(Clock::now())
    {
    }
    ~LeafTimer() { tree_.leaf(name_, tree_.current(), nsSince(t0_)); }
    LeafTimer(const LeafTimer &) = delete;
    LeafTimer &operator=(const LeafTimer &) = delete;

  private:
    SpanTree &tree_;
    const char *name_;
    Clock::time_point t0_;
};

/** What every level shares: the request, its rows, its checksums. */
struct SessionCtx
{
    int64_t index; //!< request index in the trace
    const pade::ServingRequest &req;
    const pade::ModelWorkload &work;
    const pade::BatcherOptions &opt;
    SpanTree &tree;
    ReplayResult &result;
    uint64_t checksum = 0;
    uint64_t prefill_checksum = 0;

    /** Mixes one position's per-layer outputs like the sink does. */
    void
    emit(int pos, std::span<const pade::MatrixF> outs)
    {
        if (pos >= req.prompt_len) {
            for (const pade::MatrixF &o : outs)
                checksum = mixMatrix(checksum, o);
        } else if (pos >= req.prefix_len) {
            for (const pade::MatrixF &o : outs)
                prefill_checksum = mixMatrix(prefill_checksum, o);
        }
    }
};

/** One request's state at one replay level. */
class LevelSession
{
  public:
    virtual ~LevelSession() = default;
    /** Splice one prefix page depth (layers x kv_heads pages). */
    virtual void adopt(std::span<const PagePtr> pages) = 0;
    /** Append prefix page @p page's pages, layer-major. */
    virtual void share(int page, std::vector<PagePtr> &out) const = 0;
    /** Prompt positions [begin, end): one prefill chunk. */
    virtual void prefill(int begin, int end) = 0;
    /** One decode token at position @p pos. */
    virtual void decode(int pos) = 0;
};

std::vector<float>
perStream(const pade::BatcherOptions &opt, float v)
{
    return std::vector<float>(
        static_cast<std::size_t>(opt.layers * opt.kv_heads), v);
}

pade::LayerEngineConfig
layerConfig(const pade::BatcherOptions &opt)
{
    pade::LayerEngineConfig lc;
    lc.heads = opt.heads;
    lc.kv_heads = opt.kv_heads;
    lc.head_dim = opt.head_dim;
    lc.bits = opt.bits;
    lc.page_tokens = opt.page_tokens;
    lc.pade = opt.pade;
    lc.retention = opt.retention;
    return lc;
}

/** Level A: the whole-model engine, driven like the batcher does. */
class ModelLevel final : public LevelSession
{
  public:
    explicit ModelLevel(SessionCtx &c) : c_(c)
    {
        const TracedSpan span(c.tree, "model_engine.setup", c.index);
        pade::ModelEngineConfig mc;
        mc.layers = c.opt.layers;
        mc.pipeline = c.opt.pipeline;
        mc.layer = layerConfig(c.opt);
        SessionCtx *ctx = &c;
        engine_.emplace(
            mc, perStream(c.opt, c.work.vScale()),
            perStream(c.opt, c.work.logitScale()),
            [ctx](int layer, int pos, pade::MatrixI8 &k,
                  pade::MatrixI8 &v, pade::MatrixI8 &q) {
                const LeafTimer t(ctx->tree, "workload.stage");
                ctx->work.stageKv(layer, pos, k, v);
                ctx->work.stageQueries(layer, pos, q);
            },
            [ctx](const pade::TokenResult &tr) {
                ctx->emit(tr.pos, tr.outs);
            });
    }
    void adopt(std::span<const PagePtr> pages) override
    {
        engine_->adoptPrefixPages(pages);
    }
    void share(int page, std::vector<PagePtr> &out) const override
    {
        engine_->sharePrefixPages(page, out);
    }
    void prefill(int begin, int end) override
    {
        const TracedSpan span(c_.tree, "model_engine.prefill", begin);
        for (int t = begin; t < end; t++)
            engine_->feed(t, c_.req.prompt_len);
        engine_->drain(nullptr);
    }
    void decode(int pos) override
    {
        const TracedSpan span(c_.tree, "model_engine.decode", pos);
        engine_->feed(pos, c_.req.prompt_len);
        engine_->drain(nullptr);
    }

  private:
    SessionCtx &c_;
    std::optional<pade::ModelEngine> engine_;
};

/** Staging buffers and per-layer outputs of levels B and C. */
struct Staging
{
    explicit Staging(const pade::BatcherOptions &opt)
        : k(opt.kv_heads, opt.head_dim), v(opt.kv_heads, opt.head_dim),
          q(opt.heads, opt.head_dim)
    {
        for (int l = 0; l < opt.layers; l++)
            outs.emplace_back(opt.heads, opt.head_dim);
    }
    void
    stage(SessionCtx &c, int layer, int pos)
    {
        const LeafTimer t(c.tree, "workload.stage");
        c.work.stageKv(layer, pos, k, v);
        c.work.stageQueries(layer, pos, q);
    }
    pade::MatrixI8 k, v, q;
    std::vector<pade::MatrixF> outs;
};

/** Level B: one LayerEngine per layer. */
class LayerLevel final : public LevelSession
{
  public:
    explicit LayerLevel(SessionCtx &c)
        : c_(c), st_(c.opt),
          scales_(static_cast<std::size_t>(c.opt.kv_heads),
                  c.work.logitScale())
    {
        const std::vector<float> v_scales(
            static_cast<std::size_t>(c.opt.kv_heads), c.work.vScale());
        for (int l = 0; l < c.opt.layers; l++)
            layers_.emplace_back(layerConfig(c.opt), v_scales);
    }
    void adopt(std::span<const PagePtr> pages) override
    {
        const auto kv = static_cast<std::size_t>(c_.opt.kv_heads);
        for (std::size_t l = 0; l < layers_.size(); l++)
            layers_[l].adoptSharedPages(pages.subspan(l * kv, kv));
    }
    void share(int page, std::vector<PagePtr> &out) const override
    {
        for (const pade::LayerEngine &layer : layers_)
            layer.sharePages(page, out);
    }
    void prefill(int begin, int end) override
    {
        const TracedSpan span(c_.tree, "replay.layer.prefill", begin);
        for (int pos = begin; pos < end; pos++)
            position(pos, true);
    }
    void decode(int pos) override
    {
        const TracedSpan span(c_.tree, "replay.layer.decode", pos);
        position(pos, false);
    }

  private:
    void
    position(int pos, bool prefill)
    {
        for (std::size_t l = 0; l < layers_.size(); l++) {
            st_.stage(c_, static_cast<int>(l), pos);
            pade::LayerEngine &layer = layers_[l];
            const LeafTimer t(c_.tree, prefill ? "layer_engine.prefill"
                                               : "layer_engine.decode");
            layer.appendToken(st_.k, st_.v);
            if (prefill) {
                layer.prefillPosition(st_.q, pos, c_.req.prompt_len,
                                      scales_, st_.outs[l]);
            } else {
                layer.decode(st_.q, scales_, st_.outs[l]);
                layer.evict();
            }
        }
        c_.emit(pos, st_.outs);
    }

    SessionCtx &c_;
    Staging st_;
    std::vector<float> scales_;
    std::vector<pade::LayerEngine> layers_;
};

/** Level C: a KvCache and a DecodeEngine per (layer, KV head). */
class DecodeLevel final : public LevelSession
{
  public:
    explicit DecodeLevel(SessionCtx &c) : c_(c), st_(c.opt)
    {
        pade::KvCacheConfig kc;
        kc.head_dim = c.opt.head_dim;
        kc.bits = c.opt.bits;
        kc.page_tokens = c.opt.page_tokens;
        kc.subgroup = c.opt.pade.subgroup;
        kc.muxes = c.opt.pade.muxes;
        kc.v_scale = c.work.vScale();
        const int streams = c.opt.layers * c.opt.kv_heads;
        caches_.reserve(static_cast<std::size_t>(streams));
        engines_.reserve(static_cast<std::size_t>(streams));
        for (int i = 0; i < streams; i++) {
            caches_.emplace_back(kc);
            engines_.emplace_back(c.opt.pade, c.opt.retention);
        }
    }
    void adopt(std::span<const PagePtr> pages) override
    {
        for (std::size_t i = 0; i < caches_.size(); i++)
            caches_[i].adoptSharedPage(pages[i]);
    }
    void share(int page, std::vector<PagePtr> &out) const override
    {
        for (const pade::KvCache &cache : caches_)
            out.push_back(cache.sharePage(page));
    }
    void prefill(int begin, int end) override
    {
        const TracedSpan span(c_.tree, "replay.decode.prefill", begin);
        for (int pos = begin; pos < end; pos++)
            position(pos, true);
    }
    void decode(int pos) override
    {
        const TracedSpan span(c_.tree, "replay.decode.decode", pos);
        position(pos, false);
    }

  private:
    void
    position(int pos, bool prefill)
    {
        const int kvh = c_.opt.kv_heads;
        const int group = c_.opt.heads / kvh;
        const float scale = c_.work.logitScale();
        for (int l = 0; l < c_.opt.layers; l++) {
            st_.stage(c_, l, pos);
            const auto base = static_cast<std::size_t>(l * kvh);
            {
                const LeafTimer t(c_.tree, "kv_cache.append");
                for (int kv = 0; kv < kvh; kv++)
                    caches_[base + static_cast<std::size_t>(kv)]
                        .appendToken(st_.k.row(kv), st_.v.row(kv));
            }
            pade::MatrixF &out = st_.outs[static_cast<std::size_t>(l)];
            const LeafTimer t(c_.tree, prefill ? "decode_engine.prefill"
                                               : "decode_engine.decode");
            for (int kv = 0; kv < kvh; kv++) {
                const std::size_t s = base + static_cast<std::size_t>(kv);
                const pade::DecodeStep step = prefill
                    ? engines_[s].prefillGroup(
                          caches_[s], st_.q, kv * group, group, pos,
                          c_.req.prompt_len, scale, out, kv * group)
                    : engines_[s].stepGroup(caches_[s], st_.q,
                                            kv * group, group, scale,
                                            out, kv * group);
                if (!prefill)
                    engines_[s].applyRetention(caches_[s]);
                c_.result.keys += static_cast<uint64_t>(step.keys) *
                    static_cast<uint64_t>(group);
                c_.result.retained += static_cast<uint64_t>(step.retained);
                c_.result.planes += step.planes;
            }
        }
        c_.emit(pos, st_.outs);
    }

    SessionCtx &c_;
    Staging st_;
    std::vector<pade::KvCache> caches_;
    std::vector<pade::DecodeEngine> engines_;
};

const char *
sessionSpanName(ReplayLevel level)
{
    switch (level) {
    case ReplayLevel::kModel:
        return "replay.model";
    case ReplayLevel::kLayer:
        return "replay.layer";
    case ReplayLevel::kDecode:
        return "replay.decode";
    }
    return "replay";
}

/** One level's replay state, advanced one request at a time. */
class Replayer
{
  public:
    Replayer(ReplayLevel level, const pade::BatcherOptions &opt)
        : opt_(opt)
    {
        result_.level = level;
        if (opt.prefix_cache) {
            pade::PrefixIndexOptions pio;
            pio.streams = opt.layers * opt.kv_heads;
            pio.max_bytes = opt.prefix_cache_bytes;
            index_.emplace(pio);
        }
    }

    /** Replays request @p i, adopting at most @p hit_tokens. */
    void serveRequest(std::size_t i, const pade::ServingRequest &req,
                      int hit_tokens);

    ReplayResult
    finish()
    {
        result_.totals = tree_.totals();
        return std::move(result_);
    }

  private:
    const pade::BatcherOptions &opt_;
    ReplayResult result_;
    SpanTree tree_;
    std::optional<pade::PrefixIndex> index_;
};

void
Replayer::serveRequest(std::size_t i, const pade::ServingRequest &req,
                       int hit_tokens)
{
    const auto id = static_cast<int64_t>(i);
    const auto streams =
        static_cast<std::size_t>(opt_.layers * opt_.kv_heads);
    const TracedSpan session(tree_, sessionSpanName(result_.level), id);
    std::optional<pade::ModelWorkload> work;
    std::vector<uint64_t> chain;
    {
        const TracedSpan span(tree_, "workload.materialize", id);
        pade::ModelSpec spec;
        spec.layers = opt_.layers;
        spec.heads = opt_.heads;
        spec.kv_heads = opt_.kv_heads;
        spec.head_dim = opt_.head_dim;
        spec.prompt_len = req.prompt_len;
        spec.decode_steps = req.decode_steps;
        spec.bits = opt_.bits;
        spec.prefix_len = req.prefix_len;
        spec.prefix_seed = req.prefix_seed;
        spec.concentration = opt_.concentration;
        spec.locality = opt_.locality;
        spec.seed = req.seed;
        work.emplace(spec);
        if (index_ && req.prefix_len >= opt_.page_tokens)
            chain = work->prefixPageChain(opt_.page_tokens);
    }

    SessionCtx ctx{id, req, *work, opt_, tree_, result_};
    std::unique_ptr<LevelSession> s;
    switch (result_.level) {
    case ReplayLevel::kModel:
        s = std::make_unique<ModelLevel>(ctx);
        break;
    case ReplayLevel::kLayer:
        s = std::make_unique<LayerLevel>(ctx);
        break;
    case ReplayLevel::kDecode:
        s = std::make_unique<DecodeLevel>(ctx);
        break;
    }

    int acquired = 0;
    int prefilled = 0;
    if (!chain.empty()) {
        const TracedSpan span(tree_, "prefix_index.acquire", id);
        const pade::PrefixMatch match = index_->acquire(chain);
        acquired = match.pages;
        const int adopt =
            std::min(match.pages, hit_tokens / opt_.page_tokens);
        for (int d = 0; d < adopt; d++)
            s->adopt(std::span<const PagePtr>(match.shared)
                         .subspan(static_cast<std::size_t>(d) * streams,
                                  streams));
        prefilled = adopt * opt_.page_tokens;
    }
    const int adopted_pages = prefilled / opt_.page_tokens;

    // The batcher's schedule: prefill chunks from the adoption
    // frontier, publish once the shared prefix is complete, then one
    // decode token per step.
    bool published = chain.empty();
    while (prefilled < req.prompt_len) {
        const int n =
            std::min(opt_.prefill_chunk, req.prompt_len - prefilled);
        s->prefill(prefilled, prefilled + n);
        result_.prefill_positions += static_cast<uint64_t>(n);
        prefilled += n;
        if (!published && prefilled >= req.prefix_len) {
            published = true;
            if (adopted_pages < static_cast<int>(chain.size())) {
                const TracedSpan span(tree_, "prefix_index.publish", id);
                std::vector<PagePtr> pages;
                for (std::size_t d = 0; d < chain.size(); d++)
                    s->share(static_cast<int>(d), pages);
                index_->publish(chain, pages);
            }
        }
    }
    for (int t = 0; t < req.decode_steps; t++)
        s->decode(req.prompt_len + t);
    result_.decode_tokens += static_cast<uint64_t>(req.decode_steps);

    if (acquired > 0) {
        const TracedSpan span(tree_, "prefix_index.release", id);
        index_->release(chain, acquired);
    }
    result_.checksum ^= ctx.checksum;
    result_.prefill_checksum ^= ctx.prefill_checksum;
}

} // namespace

std::array<ReplayResult, 3>
replayAll(const Workload &w, const Geometry &g,
          const std::vector<pade::ServingRequest> &trace,
          const std::vector<int> &hit_tokens)
{
    const pade::BatcherOptions opt = batcherOptions(w, g, 1);
    std::array<Replayer, 3> levels = {
        Replayer(ReplayLevel::kModel, opt),
        Replayer(ReplayLevel::kLayer, opt),
        Replayer(ReplayLevel::kDecode, opt),
    };
    // Request-major with a rotating level order: each request's three
    // replays run back to back, so host speed drift over the trace
    // and which level runs first (warm caches) hit every level alike.
    for (std::size_t i = 0; i < trace.size(); i++)
        for (std::size_t k = 0; k < levels.size(); k++)
            levels[(i + k) % levels.size()].serveRequest(
                i, trace[i], hit_tokens[i]);
    return {levels[0].finish(), levels[1].finish(), levels[2].finish()};
}

} // namespace servebench
