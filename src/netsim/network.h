// Deterministic synchronous message-passing runtime (CONGEST model).
//
// Semantics
// ---------
// Time proceeds in synchronous rounds. In round r every non-halted node is
// invoked once with the batch of messages addressed to it that were sent in
// round r-1 (round 0 delivers an empty inbox — it is the initialization
// round), unless it sleeps through r with an empty inbox (below) — a step
// the node has declared a no-op, so the execution is the same either way.
// During its invocation a node may send at most one message to
// each of its neighbours (the classic CONGEST allowance), each within the
// per-message bit budget; a broadcast uses every link, so it must be the
// node's only send of the round. Execution stops when every node has halted
// and no messages are in flight, or when `max_rounds` elapses.
//
// Sleeping nodes and skipped rounds
// ---------------------------------
// A process that knows its next steps are no-ops calls
// `NodeContext::sleep_until(w)`: its steps in rounds before w may then be
// skipped while no message arrives for it, and a message wakes it for the
// round it lands in. The hint is per step — a step that gives none leaves
// the node awake for the next round — and a halt staged in the same step
// wins over it. The stepping node writes w through its RoundBuffer into a
// per-node wake column, and the step loop skips a node whose wake round is
// still ahead and whose arena slice is empty in O(1). Sleepers stay on the
// live list: quiescence, live_node_count(), all_halted() and the trace's
// `live` field count them as before.
// When no node stepped in a round stays awake for the next one and nothing
// is in flight, one O(live) scan of the wake column finds the earliest wake
// round, and every round before it is skipped: nothing is stepped, gathered
// or committed, but each skipped round still counts in NetMetrics::rounds
// and against `max_rounds`, and a traced run records it (zero counters,
// zero durations, `path` "skip"), so round numbers stay consecutive. A skip
// stops at the next scheduled crash round, whose crashes are then applied
// by an ordinary round, and a run() cut short by `max_rounds` inside a skip
// resumes it. Only this engine honours the hint: the reliable channel's
// standalone buffer ignores it, so reliable runs step every round.
//
// Step/commit architecture
// ------------------------
// Each round runs in two phases, on one thread. The *step* phase invokes
// every live node in ascending id order, which writes its sends and halt
// request through a `RoundBuffer` (netsim/round_buffer.h) into the round's
// `StageLog`. The *commit* phase then delivers the staged sends by counting
// sort into the structure-of-arrays arena (below): fault injection is
// applied and metrics are accounted in canonical node-id order, then
// surviving records are scattered into next round's arena.
//
// Structure-of-arrays arena
// -------------------------
// The transport never moves 80-byte `Message` objects in bulk. Staging
// stores packed 40-byte `WireRecord`s (netsim/message.h) contiguously in
// the round's `StageLog`; a broadcast stages ONE flagged record, not
// `degree` copies, and its CONGEST bill (message count, bit sum) is settled
// analytically at stage time, not per copy. The TransportHeader of a
// reliable-channel frame sits in the log's header column at its record's
// index; only frames extend the column, so ordinary traffic never pays for
// it. The delivery arena itself is a double-buffered permutation of
// *slots* — `const WireRecord*` entries laid out CSR-style as disjoint
// per-destination slices — and the commit phase runs column-wise passes:
//   1. *tally*: fault-free rounds read the log's message/bit aggregates,
//      and staging has already counted every copy into the destination
//      count column, so there is nothing left to count; rounds with message
//      hazards instead walk the records in canonical order, drawing the
//      per-(seed, sender, round) fault coins in send order — broadcasts
//      expand here, one coin per copy in adjacency order, exactly the
//      legacy per-copy stream — and count the surviving copies;
//   2. *layout*: retire the consumed arena's slices and prefix-sum the new
//      counts into (begin, count) slices. Sparse rounds visit only the
//      first-touch list of destinations; dense rounds (survivors >= N/8)
//      switch to one ascending scan of the count column — still O(live +
//      messages) by the gate, and ascending slice order is friendlier to
//      the scatter;
//   3. *scatter*: write each surviving record's address into its slice,
//      expanding broadcast records over the sender's adjacency. The log is
//      scanned in canonical order, so each slice fills in ascending-sender
//      order with ties in send-call order — exactly the order the old
//      per-node mailboxes accumulated, and already the canonical
//      `kBySource` delivery order, so `kBySource` needs no per-inbox sort
//      at all.
// Each slot also carries the copy's receiver-side port (`Message::port`),
// written by the scatter into a parallel column: a unicast's port is
// looked up in the reverse-position column (below) from the sender-side
// position its RoundBuffer already resolved, a broadcast copy's is read
// beside the sender's adjacency, and the clique's is arithmetic.
// At delivery the next step phase *gathers*: each node's slot slice is
// materialized into a `Message` scratch (the only place the wide view is
// built), ordered per `DeliveryOrder`, and handed to the process.
// Every round is tallied and laid out this way; every round but a pull
// round (below) is also scattered into the arena.
//
// Pull rounds. In a round where every staged record is a broadcast, a
// receiver's inbox is exactly its broadcasting neighbours in the order of
// its own sorted adjacency, so the receiver can read those records itself.
// The commit delivers a round by *pull* when all four of these hold:
//   * the run has no message hazards (a hazard round draws one fault coin
//     per copy, so it keeps the survivors path);
//   * the topology is explicit;
//   * every staged record is a broadcast;
//   * the touched receivers' degrees sum to at most twice the round's
//     copies.
// The scatter pass of a pull round writes no slot: it only notes, in an
// N-entry column (`pull_rec_`), the record each broadcasting sender
// staged. The next step's gather walks the receiver's sorted adjacency and
// builds one `Message` per neighbour whose entry is set, with `port` set
// to that neighbour's position in the receiver's list — the port the
// scatter would read from the reverse-position column. The walk is
// ascending, which is the canonical `kBySource` order, so a pulled inbox
// equals the pushed one message for message, and so do the metrics, fault
// coins and traces. The degree gate keeps the walks of a round's receivers
// within twice its copies, so the O(live + messages) bound below holds.
// The tally and the layout run as in any round (slice counts still wake
// sleepers and size each inbox), and the next commit clears the column
// once the step has consumed it. Mixed, hazard, clique and sparse rounds
// keep the push scatter. A traced round names its path ("pull" or "push").
//
// Per-round transport work is O(live nodes + messages), never O(N): the
// engine iterates an explicit live-node list (halted nodes are compacted
// out), and quiescence is an O(1) check of the maintained live/in-flight
// counters rather than a scan.
//
// Recycling: the logs, the slot permutations, the scratch vectors and the
// link stamps all retain capacity across rounds and across run() calls, so
// steady-state commits allocate nothing (tests/arena_alloc_test.cc pins
// this).
//
// Determinism
// -----------
// The execution is a pure function of (topology, processes, options.seed).
// Three explicit stream families carry all randomness:
//   * node coins:     `ctx.rng()` draws from a persistent per-node stream
//                     derived once as split(seed, node);
//   * inbox shuffle:  `kRandomShuffle` permutes node v's round-r arena
//                     slice with a fresh stream derived from (seed, v, r);
//   * fault drops:    each message sent by node u in round r is dropped
//                     with a fresh stream derived from (seed, u, r), drawn
//                     in send order.
// Because every stream is keyed by (seed, node, round) rather than drawn
// from a shared generator, no draw depends on the order nodes were stepped.
// Nor does any depend on which no-op steps were skipped: a skipped step
// draws no node coin (the process promised it would not), receives no
// inbox to shuffle and sends nothing to drop.
// `kBySource` delivers each slice as laid out (ascending source — the
// canonical order), `kReverseSource` is a cheap adversary for
// order-sensitivity tests.
//
// Construction
// ------------
// A network is built finished, on one of two topologies. `Network(Adjacency,
// Options)` takes an explicit graph as a sorted CSR adjacency with its
// reverse-position column (the `Adjacency` struct below) and checks it in
// O(N + E); `build_sorted_adjacency` turns an edge list into one, and core's
// bipartite builder derives one from an instance's cost-sorted edge lists.
// `Network::clique(N, options)` declares the congested clique (below).
//
// Resume semantics
// ----------------
// `run()` returning (quiescence or max_rounds) always leaves the engine at
// a round boundary: every staged send has been committed into the arena,
// so calling `run()` again continues the *same* execution — the next call
// picks up at round `r+1` with the in-flight messages intact.
// tests/netsim_test.cc pins it. A run() that throws (a process's
// CheckError) leaves its round half staged; only restart() goes on from
// there.
//
// Stage rerun semantics
// ---------------------
// `restart(options)` instead begins a *new* execution on the frozen
// topology: round 0, no processes, nothing in flight, fresh cumulative
// metrics, node RNG streams re-derived from `options.seed`, and the fault
// plan re-bound from `options.faults` — exactly the state a network built
// with `options` would be in, so the run is bit-identical to one on a
// fresh network over the same topology. A multi-stage pipeline whose
// stages each start at round 0 with their own seed, bit budget and trace
// section (core::run_pipeline) reruns one network instead of building the
// CSR per stage.
//
// Congested-clique topology
// -------------------------
// `Network::clique(N, options)` declares the complete graph on N
// nodes without materializing it: no O(N^2) edge list, no CSR adjacency.
// Adjacency is answered from one shared rotation array of 2N-1 node ids
// (`clique_adj_[k] = k mod N`), so node i's neighbour span is the N-1 ids
// starting after its own — every node except i, beginning at i+1 and
// wrapping. The span is a *rotation*, not sorted; the hazard coins and the
// commit scatter instead iterate destinations in ascending id order
// skipping the sender, which keeps `kBySource` the canonical
// ascending-source order and the per-copy fault-coin stream identical to an
// explicit clique. (The stage-time tally walks the rotation, but any
// clique broadcast makes its round dense, and the dense layout re-derives
// the touched list in ascending order.) Per-link legality is enforced
// exactly as in explicit topologies, through the same link stamps: the
// RoundBuffer maps a destination to its rotation position arithmetically
// instead of searching a sorted list, and a broadcast is still ONE staged
// record whose N-1 per-link bills (messages, bits) are settled analytically
// at stage time. Everything else (faults, delivery orders, tracing)
// composes unchanged.
//
// Fault injection
// ---------------
// `Options::faults` configures a seeded, deterministic FaultPlan
// (netsim/fault.h): i.i.d. and burst (Gilbert–Elliott) message loss,
// message duplication, and crash-stop node failures.
// Message hazards are applied by the commit tally in canonical sender
// order; crash events remove nodes at the start of their scheduled round.
// The paper's model is reliable — algorithms that must survive loss opt
// into the ReliableChannel adapter (netsim/reliable.h), which recovers via
// acks and retransmissions; without it, tests use faults to verify the
// simulator's accounting and that the algorithms fail *loudly*.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "netsim/fault.h"
#include "netsim/message.h"
#include "netsim/metrics.h"

namespace dflp::net {

class Network;
class RoundBuffer;
class Tracer;

/// Link scratch for the one-message-per-link rule, owned by the engine and
/// by each standalone RoundBuffer: `stamp[k]` is the epoch in which the
/// stepping node last sent on the link to its k-th neighbour.
/// RoundBuffer::begin() bumps `epoch`, so every link reads as unused again
/// in O(1) — no zero-fill per node step, on any topology.
struct LinkStamps {
  std::vector<std::uint64_t> stamp;  ///< grown to the largest degree stepped
  std::uint64_t epoch = 0;           ///< bumped once per (node, round) step
};

/// Contiguous staging log of one round: every stepped node appends its
/// sends (as packed WireRecords), halts and phase annotations here through
/// its RoundBuffer. Records are grouped per sender in ascending id order
/// with ties in send-call order, which is exactly the canonical order the
/// commit phase consumes. The engine double-buffers two logs by round
/// parity so last round's records stay addressable (the delivery arena
/// points into them) while this round stages. All vectors retain capacity
/// across rounds.
struct StageLog {
  std::vector<WireRecord> records;
  /// Parallel to `records`: the sender-side port of each unicast or frame,
  /// i.e. the position of `dst` in the sender's neighbour list (0 on
  /// broadcast records). The commit turns it into the receiver's port.
  std::vector<std::int32_t> ports;
  /// Indexed like `records`, up to the last frame: `headers[r]` is the
  /// TransportHeader of record r when it is flagged kWireHasHeader, filler
  /// otherwise. Only a frame extends it (padding it to its own index
  /// first), so a round without frames leaves it empty.
  std::vector<TransportHeader> headers;
  std::size_t broadcasts = 0;  ///< records flagged kWireBroadcast
  std::vector<NodeId> halts;   ///< nodes that requested a halt
  /// Stepped nodes that stay awake for the next round: neither halted nor
  /// asleep past it. The engine skips rounds only when this reads 0.
  std::size_t awake = 0;
  std::vector<std::string_view> annotations;  ///< traced phase labels

  // Batched CONGEST accounting, summed analytically at stage time (a
  // broadcast adds degree * bits in O(1)).
  std::uint64_t messages = 0;  ///< staged sends incl. broadcast fan-out
  std::uint64_t bits_sum = 0;  ///< declared bits over all staged sends
  int max_bits = 0;            ///< largest staged declared size

  /// Clears contents for reuse, retaining capacity.
  void reset() noexcept;
};

/// A frozen undirected topology in CSR form. Node v's neighbours are
/// adj[offset[v] .. offset[v+1]), ascending, and rev[offset[v] + k] is the
/// position of v in the neighbour list of adj[offset[v] + k] — the port
/// under which that neighbour hears v.
struct Adjacency {
  std::vector<std::int32_t> offset;  ///< num_nodes + 1 entries
  std::vector<NodeId> adj;           ///< 2E neighbour ids
  std::vector<std::int32_t> rev;     ///< 2E reverse positions
};

/// Per-invocation view a process gets of its node. Created fresh by the
/// transport for every (node, round); cheap to copy around by reference.
class NodeContext {
 public:
  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] std::span<const NodeId> neighbors() const noexcept {
    return neighbors_;
  }

  /// Per-node private randomness (stable across runs with the same seed).
  [[nodiscard]] Rng& rng() noexcept { return *rng_; }

  /// Queue a message for delivery next round. `to` must be a neighbour.
  /// `bits` defaults to the honest minimum for the payload; passing a larger
  /// value models padding, passing a smaller one throws.
  void send(NodeId to, std::uint8_t kind,
            std::array<std::int64_t, 3> fields = {0, 0, 0}, int bits = -1);

  /// Send the same payload to every neighbour.
  void broadcast(std::uint8_t kind,
                 std::array<std::int64_t, 3> fields = {0, 0, 0},
                 int bits = -1);

  /// Stage a reliable-transport frame to `frame.dst` (must be a
  /// neighbour). The frame's header is billed into its wire size; the
  /// one-message-per-link rule and bit budget apply as for send().
  void send_frame(const Message& frame);

  /// Mark this node as done. A halted node is no longer stepped; delivery
  /// to a halted node is permitted but the inbox is discarded.
  void halt() noexcept;

  /// Hint that every step of this node in rounds before `round` would be a
  /// no-op while no message arrives for it: no send, no halt, no draw from
  /// rng(), no change to any state the process later reads. The engine may
  /// then skip those steps (a message still wakes the node for the round
  /// it lands in); honouring or ignoring the hint gives the same execution.
  /// It covers only the steps after this one — a step without a hint leaves
  /// the node awake — the last call in a step wins, and a halt wins over
  /// it. A `round` at or before the next round changes nothing.
  void sleep_until(std::uint64_t round);

  /// Mark an algorithm phase for this (node, round) — e.g. "offer",
  /// "accept", "open". Free when the run is untraced (one flag test in the
  /// buffer); when traced with phase capture the label is aggregated into
  /// the round's trace record. `phase` must outlive the step — use string
  /// literals. Never affects messages, metrics, or randomness.
  void annotate(std::string_view phase);

  /// Constructs a context over the buffer the step stages into. Library
  /// users normally never build one — Network and the reliable channel do.
  NodeContext(RoundBuffer& buffer, NodeId self, std::uint64_t round,
              std::span<const NodeId> neighbors, Rng& rng)
      : buffer_(&buffer), self_(self), round_(round), neighbors_(neighbors),
        rng_(&rng) {}

 private:
  RoundBuffer* buffer_;
  NodeId self_;
  std::uint64_t round_;
  std::span<const NodeId> neighbors_;
  Rng* rng_;
};

/// A node program. Implementations keep their protocol state as members and
/// react to one round at a time.
class Process {
 public:
  virtual ~Process() = default;

  /// Called once per round while the node is live. `inbox` holds messages
  /// sent to this node in the previous round (empty in round 0); the span
  /// points into the engine's delivery arena and is valid only for the
  /// duration of the call. A process may freely touch its own members and
  /// its NodeContext but must not reach into other nodes' state: they
  /// communicate only by messages.
  virtual void on_round(NodeContext& ctx, std::span<const Message> inbox) = 0;
};

/// How each node's inbox is ordered before delivery.
enum class DeliveryOrder : std::uint8_t {
  kBySource,       ///< ascending source id (canonical deterministic order)
  kRandomShuffle,  ///< per-(seed, node, round) seeded shuffle per inbox
  kReverseSource,  ///< descending source id (simple adversary)
};

class Network final {
 public:
  struct Options {
    /// Per-message budget in bits. The canonical CONGEST budget for an
    /// N-node network is `congest_bit_budget(N)`.
    int bit_budget = 64;
    DeliveryOrder delivery = DeliveryOrder::kBySource;
    /// Fault injection plan (default: no faults — the paper's reliable
    /// model). Validated by the constructors and restart().
    FaultPlan::Options faults;
    /// Seed for node RNG streams, delivery shuffles and fault injection.
    std::uint64_t seed = 1;
    /// Optional round tracer (netsim/trace.h), not owned; must outlive the
    /// network. nullptr (the default) disables tracing at the cost of one
    /// pointer test per round. Tracing is purely observational — it never
    /// changes the execution (see the trace header's cost contract).
    Tracer* tracer = nullptr;
  };

  /// Builds a network over the explicit topology `adjacency`, which must
  /// describe at least one node, with sorted, duplicate-free, symmetric
  /// neighbour lists and a matching reverse-position column. Checked in
  /// O(N + E): a violation throws CheckError naming the node. Then
  /// validates the options (budget, fault plan — throwing CheckError with
  /// the offending value), binds the fault plan, derives per-node RNGs and
  /// allocates the arena columns.
  Network(Adjacency adjacency, Options options);

  /// The congested clique on `num_nodes` (at least 2) nodes, declared
  /// implicitly (see the header comment); options as in the constructor.
  [[nodiscard]] static Network clique(std::size_t num_nodes, Options options);

  Network(Network&&) noexcept;
  Network& operator=(Network&&) noexcept;
  ~Network();

  /// Begins a new execution on the same topology under `options` (see the
  /// header comment's stage rerun semantics): round 0, every process
  /// uninstalled, nothing in flight, fresh metrics, node RNGs re-derived
  /// and the fault plan re-bound. The options are validated as by the
  /// constructors.
  void restart(Options options);

  /// Installs the program for node `id`.
  void set_process(NodeId id, std::unique_ptr<Process> process);

  /// Runs until quiescence (all nodes halted, no messages in flight) or
  /// until `max_rounds` have executed. Returns the metrics of this run.
  /// Calling run() again resumes the same execution (see the header
  /// comment's resume semantics).
  NetMetrics run(std::uint64_t max_rounds);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return processes_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }
  /// Node `id`'s adjacency. Explicit topologies return the sorted CSR
  /// neighbour list; the clique returns the implicit rotation
  /// [id+1, ..., N-1, 0, ..., id-1] — every node except `id`, unsorted.
  [[nodiscard]] std::span<const NodeId> neighbors_of(NodeId id) const;
  [[nodiscard]] bool halted(NodeId id) const;
  [[nodiscard]] bool all_halted() const noexcept {
    return live_nodes_.empty();
  }
  /// Number of non-halted nodes (O(1); the engine maintains the live list).
  [[nodiscard]] std::size_t live_node_count() const noexcept {
    return live_nodes_.size();
  }
  /// Messages currently resident in the delivery arena (O(1)).
  [[nodiscard]] std::uint64_t inflight_messages() const noexcept {
    return inflight_messages_;
  }
  /// Instrumentation: cumulative count of per-node touches the commit
  /// phase performed (live buffers drained + destination slices laid out).
  /// Tests use it to pin that transport work is O(live + messages) per
  /// round rather than O(num_nodes).
  [[nodiscard]] std::uint64_t transport_touches() const noexcept {
    return transport_touches_;
  }
  /// Instrumentation: cumulative count of rounds the commit delivered by
  /// pull (see the header comment) rather than by the push scatter. Tests
  /// that cannot attach a tracer (the allocation audit) use it to tell
  /// which path ran; it never changes the execution.
  [[nodiscard]] std::uint64_t pulled_rounds() const noexcept {
    return pulled_rounds_;
  }
  [[nodiscard]] const NetMetrics& cumulative_metrics() const noexcept {
    return cumulative_;
  }

  /// Access to an installed process, e.g. to read out results after run().
  [[nodiscard]] Process& process(NodeId id);
  [[nodiscard]] const Process& process(NodeId id) const;

 private:
  /// The sizing step both constructors share: `num_nodes` (at least 1)
  /// nodes, no process installed, every node live, no topology yet.
  Network(std::size_t num_nodes, Options options);

  /// Adjacency lookup without the public accessor's range check, for the
  /// per-node step loop.
  [[nodiscard]] std::span<const NodeId> neighbors_unchecked(
      std::size_t i) const noexcept {
    if (clique_)
      return {clique_adj_.data() + i + 1, processes_.size() - 1};
    return {csr_.adj.data() + csr_.offset[i],
            static_cast<std::size_t>(csr_.offset[i + 1] - csr_.offset[i])};
  }

  /// The port under which `to` hears `from`, given the sender-side port
  /// `k` of `to` (its position in from's neighbour list). The clique's
  /// rotations make it arithmetic: from is at N - 2 - k in to's rotation.
  [[nodiscard]] std::int32_t receiver_port(NodeId from,
                                           std::int32_t k) const noexcept {
    if (clique_) return static_cast<std::int32_t>(processes_.size()) - 2 - k;
    return csr_.rev[static_cast<std::size_t>(
        csr_.offset[static_cast<std::size_t>(from)] + k)];
  }

  /// Validates the options and derives everything that depends on them
  /// (fault plan, node RNGs, staging slabs); shared by the constructors
  /// and restart().
  void bind_options();

  /// Materializes node i's inbox into inbox_scratch_ (grown as needed,
  /// never shrunk — the wide Message view exists only here) and returns
  /// the filled span. After a push round it gathers the WireRecords
  /// addressed by i's slot slice of the permutation arena; `inbound` is the
  /// log the arena points into (the previous round's), and a framed slot
  /// reads its TransportHeader from that log's header column at its
  /// record's index. After a pull round it walks i's sorted adjacency
  /// instead, taking each neighbour's record from pull_rec_ with the
  /// neighbour's position in the list as the port, until the slice count
  /// is reached.
  [[nodiscard]] std::span<Message> gather_inbox(std::size_t i,
                                                const StageLog& inbound);

  void order_inbox(std::span<Message> inbox, NodeId node) const;

  Options options_;
  std::size_t num_edges_ = 0;

  // CSR adjacency (sorted neighbour lists) with its reverse-position
  // column. Unused on the clique, where adjacency is the shared rotation
  // array below and ports are arithmetic.
  Adjacency csr_;

  // Clique topology: clique_adj_[k] = k mod N over 2N-1 entries, so node
  // i's neighbour span is clique_adj_[i+1 .. i+N-1] — O(N) storage for all
  // N implicit adjacency lists.
  bool clique_ = false;
  std::vector<NodeId> clique_adj_;

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Rng> node_rngs_;
  std::vector<std::uint8_t> halted_;

  // One record that survived its fault coins, with its resolved concrete
  // destination and receiver port (broadcasts are expanded by the hazard
  // tally). Points into the round's staging log.
  struct Survivor {
    const WireRecord* rec = nullptr;
    NodeId dst = kNoNode;
    std::int32_t port = 0;
  };

  // Structure-of-arrays delivery state — see the header comment.
  //
  // stage_logs_ holds two staging logs, flipped by round parity: the log
  // staged in round r backs the arena consumed in round r+1, so its
  // records and header column must outlive the next step phase.
  //
  // arena_ is the slot permutation of round r's inbound records as disjoint
  // per-destination slices (slice_begin_/slice_count_, valid for the
  // destinations listed in touched_), and arena_port_ the receiver port of
  // each slot; the commit scatter fills next_arena_/next_arena_port_ and
  // the pairs swap each round. dst_count_ is the counting-sort tally and
  // next_touched_ its nonzero entries in first-touch order: fault-free
  // staging fills both, hazard commits count surviving copies into them,
  // and the layout drains them (all-zero and empty between rounds).
  // dst_cursor_ holds the per-destination scatter cursors. survivors_ is
  // filled only on rounds with message hazards; fault-free rounds scatter
  // straight from the log and leave it empty. pull_rec_ is the pull
  // column: while a pull round is in flight (pulled_), pull_rec_[v] is the
  // broadcast node v staged in it, or null; all-null otherwise.
  std::array<StageLog, 2> stage_logs_;
  std::vector<Message> inbox_scratch_;
  LinkStamps link_stamps_;
  std::vector<const WireRecord*> arena_;
  std::vector<const WireRecord*> next_arena_;
  std::vector<std::int32_t> arena_port_;
  std::vector<std::int32_t> next_arena_port_;
  std::vector<Survivor> survivors_;
  std::vector<std::size_t> slice_begin_;
  std::vector<std::int32_t> slice_count_;
  std::vector<std::int32_t> dst_count_;
  std::vector<std::size_t> dst_cursor_;
  std::vector<NodeId> touched_;
  std::vector<NodeId> next_touched_;
  std::vector<const WireRecord*> pull_rec_;
  bool pulled_ = false;

  // Fault injection, bound by bind_options(); crash_cursor_ walks the sorted
  // crash schedule as rounds advance.
  FaultPlan fault_plan_;
  std::size_t crash_cursor_ = 0;

  // Non-halted nodes in ascending id order; compacted when nodes halt.
  // Sleepers stay on it.
  std::vector<NodeId> live_nodes_;
  // Per-node wake round: node v's next step may be skipped while
  // round_ < wake_[v] and no message is addressed to it. Written through
  // v's RoundBuffer, reset to 0 (awake) at the start of each of v's steps.
  // 32 bits: a later wake round saturates, which only wakes the node
  // early — ignoring a hint is always allowed.
  std::vector<std::uint32_t> wake_;
  // Rounds before skip_until_ are skipped: set by the wake scan when no
  // stepped node stayed awake and nothing is in flight.
  std::uint64_t skip_until_ = 0;
  std::uint64_t inflight_messages_ = 0;
  std::uint64_t transport_touches_ = 0;
  std::uint64_t pulled_rounds_ = 0;

  std::uint64_t round_ = 0;
  NetMetrics cumulative_;
};

/// The canonical CONGEST per-message budget for an N-node network:
/// 4 * ceil(log2(N + 2)) + 16 bits. The constant leaves room for an opcode
/// and up to three log-sized payload words, mirroring the O(log N) bound.
[[nodiscard]] int congest_bit_budget(std::size_t num_nodes) noexcept;

/// Builds the sorted CSR adjacency of an undirected edge list over nodes
/// [0, num_nodes) and its reverse-position column in O(num_nodes + E), with
/// no sort: the edges are bucketed into unsorted per-node lists, which are
/// then transposed in ascending source order. An endpoint out of range, a
/// self loop or a duplicate edge, in either orientation, throws CheckError
/// naming the endpoints. `edges` is released before the adjacency is
/// allocated. This is how an edge list becomes a Network's topology.
[[nodiscard]] Adjacency build_sorted_adjacency(
    std::size_t num_nodes, std::vector<std::pair<NodeId, NodeId>> edges);

}  // namespace dflp::net
