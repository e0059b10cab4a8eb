(** A small far-memory cluster: N [Far_store.t] nodes behind a striped
    (k, m) erasure-coded data plane, a deterministic crash/recovery
    schedule, and epoch numbers that fence out requests from before a
    node loss.

    The cluster is the failure domain the rest of the stack programs
    against.  Logical far addresses are split into stripes of [k] data
    chunks of [chunk] bytes each, extended with [m] parity chunks (XOR
    for the first parity row, a GF(2^8) Reed-Solomon row for the
    second — all integer math, fully deterministic).  A placement map
    assigns the k+m chunks of every stripe to distinct nodes; r-way
    mirroring is the degenerate scheme (k = 1, m = r-1), where every
    parity chunk is a byte-identical copy.

    Quorum rule per stripe group: as long as at most [m] of a group's
    nodes are down, every read decodes to the exact written bytes —
    output is bit-identical to a fault-free run.  Reads from a down
    node reconstruct from any k survivors (the extra survivor traffic
    is drained via [take_reconstruction] so the cache layer can charge
    it); writes update the surviving parity chunks incrementally.  When
    a crash pushes a group past m concurrent failures, the chunks whose
    only copies lived on down nodes are gone: the cluster enters
    degraded mode, the exact logical extents are reported via
    [take_lost_extents], and surviving parity is recomputed over the
    zeroed chunks so later reads and recoveries stay consistent.

    Like [Net], the cluster is deterministic: the schedule is explicit
    data ([schedule_of_seed] derives one from a seed, optionally with
    genuinely overlapping outages), so a fixed seed reproduces the
    exact same crashes, reconstructions, and losses.  With
    [spec_default] (one node, k = 1, m = 0, empty schedule) every
    operation is a transparent pass-through to a single [Far_store.t] —
    bit-identical to the pre-cluster system. *)

type placement =
  | Flat  (** chunk slot j of every stripe lives on node j *)
  | Rotate
      (** chunk slot j of stripe s lives on node (s + j) mod nodes:
          spreads hot sections (and the parity write load) across the
          cluster *)

val placement_name : placement -> string

type event = {
  ev_node : int;  (** which node crashes *)
  ev_at : float;  (** simulated time of the crash *)
  ev_down_for : float;  (** outage length; the node recovers (empty) after *)
}

type spec = {
  nodes : int;  (** cluster size, >= 1 *)
  k : int;  (** data chunks per stripe, >= 1 *)
  m : int;  (** parity chunks per stripe, 0-2; k + m <= nodes *)
  chunk : int;  (** chunk size in bytes, a positive multiple of 8 *)
  placement : placement;
  schedule : event list;  (** crash schedule, any order *)
}

val spec_default : spec
(** One node, k = 1, m = 0 (no redundancy), no crashes: the
    pre-cluster system. *)

val mirror : nodes:int -> copies:int -> event list -> spec
(** [copies]-way mirroring as the (1, copies-1) scheme on a flat
    placement: node 0 holds the data, nodes 1..copies-1 full replicas. *)

val ec : ?chunk:int -> ?placement:placement -> nodes:int -> k:int -> m:int ->
  event list -> spec
(** A (k, m) erasure-coded spec (default chunk 1024, rotating
    placement). *)

val validate_spec : spec -> unit
(** Raises [Invalid_argument] on a malformed spec: [nodes < 1],
    [k < 1], [m] outside [0, 2], [k + m > nodes], a chunk size that is
    not a positive multiple of 8, an event naming a node outside
    [0, nodes), or a crash time / outage length that is negative,
    non-positive or non-finite (NaN and [infinity] are rejected). *)

val schedule_of_seed :
  overlap:bool -> seed:int -> nodes:int -> crashes:int -> horizon_ns:float ->
  down_ns:float -> event list
(** A deterministic schedule of [crashes] single-node outages derived
    from [seed]: crash times spread over [horizon_ns], outages around
    [down_ns] (0.5x-1.5x).  With [~overlap:false] outages are
    serialized — each crash starts only after the previous node has
    recovered, so at most one node is ever down.  With [~overlap:true]
    the raw crash times are kept, so outages genuinely overlap and up
    to [crashes] nodes can be down at once — the regime the quorum
    rules exist for.  Raises [Invalid_argument] (not [assert], so the
    checks survive release builds) on [nodes < 1], [crashes < 0], or a
    non-finite/non-positive horizon or outage length. *)

type incident =
  | Failover of { at : float; failed : int; epoch : int; down : int }
      (** a node crashed but every stripe group still has at least k
          live chunks (<= m of its nodes down): requests in flight to
          the dead node must be fenced (the epoch was bumped) and
          dirty lines re-issued; reads of its chunks reconstruct from
          survivors.  [down] is the cluster-wide down-node count. *)
  | Data_lost of { at : float; node : int; lost_bytes : int; epoch : int;
                   down : int }
      (** the crash pushed at least one stripe group past m concurrent
          failures: [lost_bytes] of far data (the crashed node's data
          chunks in those groups) are unrecoverable; degraded mode *)
  | Recovered of { at : float; node : int; resync_bytes : int; whole : bool }
      (** a node came back: its chunks were rebuilt from survivors
          ([resync_bytes] decoded and copied); [whole] when no node
          remains down *)

type stats = {
  mutable crashes : int;
  mutable failovers : int;  (** quorum-holding crashes survived via fencing *)
  mutable replication_bytes : int;
      (** true redundancy bytes-on-wire: parity/copy updates (per
          parity row, the union of touched chunk intervals per stripe)
          plus rebuild traffic *)
  mutable resync_bytes : int;  (** bytes rebuilt onto returning nodes *)
  mutable lost_bytes : int;  (** bytes wiped with no surviving copy *)
  mutable reconstructions : int;
      (** degraded chunk ranges served by decoding survivors *)
  mutable reconstructed_bytes : int;
  recovery : Mira_telemetry.Metrics.hist;
      (** per-failover recovery time observed by the cache manager *)
}

type t

val create : capacity:int -> spec -> t
(** Fresh empty stores ([capacity] bytes of logical far memory).
    Raises [Invalid_argument] on a malformed spec (see
    [validate_spec]). *)

val of_store : Far_store.t -> t
(** Wrap an existing single store as a one-node, redundancy-off
    cluster: every data operation is a pass-through, [poll] never
    returns incidents.  For tests and benches that own a [Far_store.t]. *)

val spec : t -> spec
val capacity : t -> int

val scheme : t -> int * int
(** The (k, m) pair. *)

val primary : t -> Far_store.t
(** Node 0's physical store.  Only a faithful view of the logical data
    for trivial (pass-through) clusters and for up-to-date flat
    mirrors, where node-local and logical addresses coincide. *)

val serving_node : t -> int
(** Lowest-numbered live node (0 when every node is down). *)

val service_lane : t -> string
(** Trace lane name ["node<serving_node>"]; changes across outages so
    fill spans record which physical node satisfied them. *)

val node_of_addr : t -> addr:int -> int
(** The node holding the data chunk that [addr] falls in — the target
    of demand traffic for that address. *)

val node_down_until : t -> node:int -> float
(** The node's recovery time while it is down; [0.0] when up. *)

val epoch : t -> int
(** Bumped on every node crash; requests in flight under an older
    epoch are stale and must be fenced. *)

val degraded : t -> bool
(** Sticky: far data has been lost at some point in this run. *)

val down_count : t -> int

val down_until : t -> float
(** When more than m nodes are concurrently down (quorum may be
    broken), the time at which enough nodes have recovered to bring
    the count back to m; [0.0] while the down count is within the
    scheme's tolerance. *)

val next_event_at : t -> float
(** Time of the next scheduled crash or recovery; [infinity] when the
    schedule is exhausted.  The O(1) guard callers use to keep [poll]
    off the access fast path. *)

val poll : t -> now:float -> incident list
(** Process every crash/recovery due at or before [now], in time
    order, and return the resulting incidents (oldest first).  The
    caller (the cache manager) is responsible for fencing the network
    and re-issuing writebacks; the cluster only moves its own state. *)

val take_lost_extents : t -> (int * int) list
(** Logical far [(addr, len)] extents lost past quorum since the last
    call (drained, adjacent extents coalesced).  The runtime intersects
    these with live object ranges for per-object lost-byte
    accounting. *)

val take_reconstruction : t -> int
(** Extra survivor bytes read by decode since the last call (drained):
    reconstructing a chunk range of c bytes reads k ranges instead of
    one, so each reconstruction adds (k-1)*c.  The cache layer models
    this as demand traffic and charges the stall to the [reconstruct]
    attribution cause. *)

val replica_payloads : t -> addr:int -> extents:(int * int) list -> (int * int) list
(** The extra remote writes a writeback of the [(off, len)] extents at
    [addr] owes under the scheme: one [(node, bytes)] per live parity
    row, where [bytes] is the per-stripe union of the chunk intervals
    the extents touch (so a full-stripe write costs len/k per row, and
    a mirror write costs the written bytes per copy).  Empty when
    m = 0.  [write_extents] ([write] for one extent) adds the same byte
    counts to [stats.replication_bytes]. *)

val stats : t -> stats

val observe_recovery : t -> float -> unit
(** Record one failover's recovery time (ns) into the histogram. *)

val publish : t -> Mira_telemetry.Metrics.t -> unit
(** Export under [node.*] / [replication.*] / [ec.*]: [node.crashes],
    [node.failovers], [node.lost_bytes], [node.epoch], [node.down],
    [node.recovery_ns] (histogram), [replication.bytes],
    [replication.resync_bytes]; for non-trivial clusters also [ec.k],
    [ec.m], [ec.chunk], [ec.reconstructions],
    [ec.reconstructed_bytes], and per-node [ec.node<N>.served_bytes]. *)

(** {1 Data plane}

    Same contract as [Far_store]: reads return the exact logical bytes
    (decoding from survivors when the owning node is down and its
    group is within quorum), writes land on the data chunk's node and
    fold the delta into every live parity chunk. *)

val read : t -> addr:int -> len:int -> dst:Bytes.t -> dst_off:int -> unit
val write : t -> addr:int -> len:int -> src:Bytes.t -> src_off:int -> unit

val read_extents :
  t -> addr:int -> extents:(int * int) list -> dst:Bytes.t -> dst_off:int -> unit
(** Read each [(off, len)] extent at [addr + off] into [dst], packed one
    after the other from [dst_off] on, and nothing else. *)

val write_extents :
  t -> addr:int -> extents:(int * int) list -> src:Bytes.t -> src_off:int -> unit
(** Store the extents packed in [src] from [src_off] on (as [read_extents]
    leaves them) each at [addr + off], and nothing else: the scattered
    write of a selective-transmission line, accounted as one write (see
    [replica_payloads]). *)

val read_le : t -> addr:int -> len:int -> int64
val write_le : t -> addr:int -> len:int -> int64 -> unit

val clear : t -> unit
(** Reset between runs: zero every store, drain pending lost extents
    and reconstruction debt, clear the sticky [degraded] flag and all
    per-run [stats] (including the recovery histogram).  Node up/down
    state, the epoch, and the remaining schedule are untouched. *)
