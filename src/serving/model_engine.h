/**
 * @file
 * Whole-model serving engine: `layers` LayerEngines composed into one
 * session, stepped layer-major so that each step exposes as many
 * independent units as the work allows.
 *
 * The schedule. Queued positions run as *chunks*, one chunk at a time,
 * in feed order:
 *
 *  - A prefill chunk is every queued prompt position. It runs two
 *    steps per layer, layer 0 first. The *stage* step is one unit: it
 *    stages the chunk's K/V/Q rows for that layer and appends K/V to
 *    the layer's caches. The *score* step is kv_heads x ceil(n /
 *    PadeConfig::tile_bc) units; each runs DecodeEngine::prefillGroup
 *    for one KV head over one tile of the chunk's queries, against
 *    caches nobody appends to during the step. A chunk therefore
 *    takes 2 x layers steps, whatever its length.
 *  - A decode position is a chunk of one: one unit per layer and
 *    step (stage, append, grouped decode, retention eviction). Decode
 *    positions fed together still run one position at a time, so a
 *    schedule can never start token t+1 before token t has left the
 *    last layer — the step sequence is one an autoregressive decoder
 *    can actually run.
 *
 * A chunk's positions retire through the sink, in feed order, when its
 * last layer's step completes; its buffers are released with it.
 *
 * Why every schedule is bit-identical to the serial oracle
 * (`pipeline = false`: one position at a time through every layer,
 * LayerEngine::prefillPosition / decode on the layer's own engines),
 * for any thread count and any chunking:
 *
 *  - Each layer receives the same KV appends in the same order, so
 *    every cache page, plane table and PlaneWork entry is the same.
 *  - Prefill scoring needs only "tokens up to at least qpos" in the
 *    cache: prefillGroup walks the ISTA order of the FULL prompt with
 *    a causal skip, so scoring after the whole chunk is appended
 *    gives the result scoring after each single append would.
 *  - Units of one step touch disjoint state: the stage unit is alone
 *    in its step; a score unit writes only its own output rows
 *    (its KV head's query rows of its tile's positions) and its own
 *    accounting slot, and reads caches that are immutable for the
 *    step. Score units run on a per-worker scratch DecodeEngine, so no
 *    two concurrent units share scan state.
 *  - The scratch engines' PruneStats are folded into the owning KV
 *    head's engine, and per-KV-head step accounting into each
 *    position's LayerStep, after the step's barrier, in ascending
 *    (KV head, tile) order on the completing thread. All counters are
 *    integers, so LayerEngine::stats() and stats() equal the oracle's.
 *  - Within a decode unit, the KV-head fan-out reduces via
 *    parallelReduceOrdered, LayerEngine's barrier discipline.
 *
 * Workload note: K/V/Q rows come from the caller's Stager (a pure
 * function of (layer, position) in the synthetic workloads), not from
 * the previous layer's activations — attention state (KV caches,
 * pruning decisions) is what the library models, not the MLP data
 * path.
 *
 * Prefix sharing: adoptPrefixPages() splices published, immutable KV
 * pages (one per layer x KV head) at the append frontier, so a
 * session whose prompt starts with an already-served prefix skips
 * packing AND scoring those pages; sharePrefixPages() exports this
 * session's pages for publication (see serving/prefix_index.h).
 * Shared pages carry their cached PlaneWork and BitPlaneSet revision,
 * so every adopter scores them through the same plane tables. Score
 * units of several sessions may read one shared page in the same
 * step; pages are immutable once shared, so that is read-only
 * sharing.
 *
 * Thread safety: none at the class surface — one session is stepped
 * from one scheduling thread. collectUnits() and completeRound() run
 * there; runCollectedUnit() calls for DISTINCT units of one open step
 * may run concurrently — the seam ContinuousBatcher's cross-session
 * co-scheduler fans a whole fleet of sessions through. advance() and
 * drain() are the same steps with the fan-out done here.
 */

#ifndef PADE_SERVING_MODEL_ENGINE_H
#define PADE_SERVING_MODEL_ENGINE_H

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "serving/layer_engine.h"
#include "tensor/matrix.h"

namespace pade {

class ThreadPool;

/** Geometry and scheduling configuration of one model engine. */
struct ModelEngineConfig
{
    int layers = 1;          //!< transformer layers
    LayerEngineConfig layer; //!< per-layer geometry/algorithm config
    /** true = the layer-major chunk schedule; false = the serial
     *  position-by-position reference schedule (the oracle the
     *  differential fuzz harness compares against). */
    bool pipeline = true;
};

/** One retired token, emitted to the sink in feed order. */
struct TokenResult
{
    int pos = 0;        //!< absolute position of the token
    int prompt_len = 0; //!< prompt length it was fed with
    /** Per-layer attention outputs (layers entries, heads x
     *  head_dim). Valid only during the sink call. */
    std::span<const MatrixF> outs;
    /** Per-layer scan accounting, same indexing. */
    std::span<const LayerStep> steps;
};

/**
 * `layers` LayerEngines stepped layer-major over chunks. See file
 * comment for the schedule and its determinism argument.
 */
class ModelEngine
{
  public:
    /**
     * Row source: fill k/v (kv_heads x head_dim) and q (heads x
     * head_dim) for (layer, pos). Called by one unit at a time,
     * possibly on a pool worker.
     */
    using Stager = std::function<void(int layer, int pos, MatrixI8 &k,
                                      MatrixI8 &v, MatrixI8 &q)>;
    /** Retired-token consumer; runs on the advance() caller. */
    using Sink = std::function<void(const TokenResult &)>;

    /**
     * @param v_scales     per-stream V dequant scales, layers *
     *                     kv_heads entries row-major by layer.
     * @param logit_scales per-stream int-score -> logit factors, same
     *                     indexing.
     */
    ModelEngine(const ModelEngineConfig &cfg,
                std::span<const float> v_scales,
                std::span<const float> logit_scales, Stager stager,
                Sink sink);

    const ModelEngineConfig &config() const { return cfg_; }
    int layerCount() const { return cfg_.layers; }

    LayerEngine &
    layer(int l)
    {
        return layers_[static_cast<std::size_t>(l)];
    }
    const LayerEngine &
    layer(int l) const
    {
        return layers_[static_cast<std::size_t>(l)];
    }

    /**
     * Enqueue position @p pos (prompt position when pos < prompt_len,
     * decode step otherwise). Positions must be fed contiguously from
     * the adopted-prefix frontier (PADE_CHECKed).
     */
    void feed(int pos, int prompt_len);

    /**
     * Run one step (see file comment) with its units fanned across
     * @p pool when given. Returns false when nothing was left to do.
     * Exactly collectUnits() + runCollectedUnit(0..n-1) +
     * completeRound(), plus the per-step fan-out and capacity
     * telemetry a self-contained step owns.
     */
    bool advance(ThreadPool *pool = nullptr);

    /**
     * Co-scheduling split of advance(), for a caller that merges the
     * units of MANY sessions into one global fan-out (see
     * ContinuousBatcher's co-scheduler): collectUnits() opens the
     * next step — opening a chunk from the queue if none is open —
     * and returns its number of independent units (0 = drained, no
     * step opened). The caller may run units 0..n-1 in ANY order or
     * concurrently and must finish with completeRound(), which folds
     * the step's accounting and, after a chunk's last step, retires
     * its positions through the sink on the calling thread, in feed
     * order. A step opened by collectUnits() must be completed before
     * the next collectUnits()/advance() (PADE_CHECKed); unit-level
     * busy telemetry is recorded here, round/capacity accounting is
     * the caller's (it knows the global round width).
     */
    int collectUnits();
    /** Run unit @p u of the step collectUnits() opened; @p pool fans
     *  a decode unit's KV-head reduction only. */
    void runCollectedUnit(int u, ThreadPool *pool = nullptr);
    void completeRound();

    /** advance() until every fed position has retired. */
    void drain(ThreadPool *pool = nullptr);

    /** Tokens fed (or adopted) so far == the next feedable position. */
    int fed() const { return fed_; }
    /** Tokens retired through the sink. */
    int completed() const { return completed_; }
    /** Positions fed but not yet retired. */
    int pending() const { return fed_ - frontier_ - completed_; }

    /**
     * Adopt one page depth of published prefix: layers * kv_heads
     * full pages row-major by layer (the layout sharePrefixPages and
     * PrefixMatch use), spliced into every layer's caches. Legal only
     * before any token is fed past the frontier and only at page
     * boundaries; advances fed() by page_tokens.
     */
    void adoptPrefixPages(
        std::span<const std::shared_ptr<const KvPage>> pages);

    /**
     * Export page @p page of every (layer, kv_head) cache for
     * publication, appending layers * kv_heads refs row-major by
     * layer to @p out. Pages must be full (PADE_CHECKed in KvCache).
     */
    void sharePrefixPages(
        int page,
        std::vector<std::shared_ptr<const KvPage>> &out) const;

    /** Pruning statistics folded over layers in ascending order. */
    PruneStats stats() const;

    /** Resident KV bytes over all layers (shared pages included). */
    std::size_t bytesUsed() const;

  private:
    /** Kind of the unit a step runs (also the model.unit span arg). */
    enum class UnitKind
    {
        kStage,  //!< stage + append a prefill chunk at one layer
        kScore,  //!< one KV head x one query tile of a prefill chunk
        kDecode, //!< one decode position at one layer
        kSerial, //!< one position through every layer (oracle)
    };

    /**
     * The open chunk: its positions, progress, and buffers. The
     * buffers live only as long as the chunk (released at retirement,
     * except a one-position chunk's, which the next decode reuses).
     */
    struct Chunk
    {
        int first = 0;      //!< absolute position of the first entry
        int n = 0;          //!< positions; 0 = no chunk open
        int prompt_len = 0; //!< prompt length the chunk was fed with
        int layer = 0;      //!< layer of the next step
        bool scoring = false; //!< prefill: stage done, score next
        int tiles = 0;        //!< query tiles of a prefill chunk
        /** Outputs and accounting, n x layers, position-major: each
         *  position's layers are contiguous for the sink. */
        std::vector<MatrixF> outs;
        std::vector<LayerStep> steps;
        /** Staged query rows of the current layer, one per position. */
        std::vector<MatrixI8> q;
        /** Score accounting of the current layer: per (position,
         *  KV head) and per (KV head, tile). */
        std::vector<DecodeStep> head_steps;
        std::vector<PruneStats> tile_stats;

        bool prefill() const { return first < prompt_len; }
    };

    /** Open the next chunk from the queue; false when it is empty. */
    bool openChunk();
    /** Unit kind of the open step. */
    UnitKind stepKind() const;
    /** A one-position chunk at layer @p l through LayerEngine:
     *  stage, append, prefillPosition or decode + evict. */
    void runPosition(int l, ThreadPool *pool);
    void stageChunk();
    void scoreTile(int u);
    void retireChunk();
    std::span<const float> logitScales(int l) const;

    ModelEngineConfig cfg_;
    std::vector<float> v_scales_;
    std::vector<float> logit_scales_;
    Stager stager_;
    Sink sink_;

    std::vector<LayerEngine> layers_;
    // K/V staging rows: one stage or decode unit per step.
    MatrixI8 stage_k_;
    MatrixI8 stage_v_;

    /** Prompt length of each queued position (fed, not yet in a
     *  chunk); positions are contiguous from fed_ - queue_.size(). */
    std::deque<int> queue_;
    Chunk chunk_;
    int fed_ = 0;
    /** Positions adopted from a shared prefix (never retired). */
    int frontier_ = 0;
    int completed_ = 0;
    /** True between collectUnits() and completeRound(). */
    bool round_open_ = false;
};

} // namespace pade

#endif // PADE_SERVING_MODEL_ENGINE_H
