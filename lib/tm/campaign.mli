(** Deterministic adversarial campaign engine (Testing Module, §5).

    Runs full enclave↔host simulations — XSK UDP echo, io_uring
    file/TCP workloads via the SyncProxy, Monitor-driven wakeups —
    under {e schedules} of {!Hostos.Malice} attacks: single attacks
    pinned to a step, pairwise combinations, or RNG-driven soups.
    Every run is seeded and the simulator is deterministic, so any
    outcome replays exactly from its [(seed, schedule)] pair.

    Violations are Table 2 contract breaches only: a broken certified
    invariant, corrupted data acted on as if intact, an out-of-range
    transfer count, or a stalled workload.  Detected refusals (EPERM,
    rejected indices, dropped frames) and data-level corruption while
    [Corrupt_packet] is live (deliberately unchecked by RAKIS — TLS
    territory) are counted separately, not as violations. *)

type datapath = Xsk | Iouring

type entry =
  | At of { step : int; attack : Hostos.Malice.attack }
      (** fire once at the first opportunity on or after [step] *)
  | During of {
      first : int;
      last : int;
      probability : float;
      attack : Hostos.Malice.attack;
    }  (** burst window: fire with [probability] while inside it *)

type schedule = entry list

type violation = { at_step : int; what : string }

type outcome = {
  datapath : datapath;
  seed : int64;
  budget : int;  (** workload steps driven *)
  queues : int;  (** datapath shards the machine booted with *)
  schedule : schedule;
  steps_run : int;
  ok : int;  (** operations verified against the golden model *)
  late_ok : int;  (** verified operations in the last quarter (recovery) *)
  refused : int;  (** detected-and-refused operations *)
  lost : int;  (** timeouts / drops (availability, not integrity) *)
  tolerated : int;  (** mismatches while a data-level attack was live *)
  fired : (Hostos.Malice.attack * int) list;
  fault_plan : Hostos.Faults.plan;
      (** the host-fault schedule the run executed under ([[]] =
          fault-free; the injector and watchdog were not armed) *)
  injected : (Hostos.Faults.fault * int) list;
      (** faults actually injected, with counts *)
  ring_rejects : int;  (** certified index-check rejections *)
  desc_rejects : int;  (** descriptor/UMem + CQE rejections *)
  invariant_ok : bool;
  watchdog_restarts : int;  (** Monitor restarts by the watchdog *)
  degraded_scans : int;  (** in-enclave scans run in the MM's stead *)
  breaker_opens : int;
      (** circuit-breaker trips, summed over every shard's XSK breaker
          plus the uring/mm breakers (DESIGN.md §9, §10) *)
  breaker_failovers : int;  (** ops rerouted to the exit-based slow path *)
  breaker_closes : int;  (** recoveries: half-open probes that failed back *)
  shard_opens : int list;
      (** per-shard XSK breaker trips in shard order ([queues] entries):
          the containment witness — a fault pinned to shard [k] must
          leave every other entry 0 *)
  slow_calls : int;  (** host syscalls the slow path actually performed *)
  zerocopy : bool;
      (** machine booted with {!Rakis.Config.zerocopy}: SEND_ZC,
          fixed-buffer file IO and multishot recv on the io_uring
          datapath (docs/zerocopy.md) *)
  zc_sends : int;  (** SEND_ZC frames lent to the kernel *)
  zc_fallbacks : int;
      (** zero-copy ops that degraded to the copy path (dry pool or
          bounced submission) *)
  zc_notif_rejects : int;
      (** forged-early plus stray/duplicate notifs refused *)
  zc_leaks : int;
      (** lent frames whose notif the host withheld — non-zero fails
          the campaign (see {!failed}) *)
  overload : bool;
      (** machine booted with {!Rakis.Config.overload}: CoDel/watermark
          admission control on every shard plus the io_uring pending
          table (DESIGN.md §15) *)
  ov_admitted : int;  (** admissions summed over every controller *)
  ov_shed : int;  (** accounted data-class sheds *)
  ov_control_shed : int;
      (** control-class (breaker probe) sheds — the controller
          guarantees 0; non-zero fails the campaign (see {!failed}) *)
  ov_edge_drops : int;
      (** host-NIC drops while the fill ring was throttled: the flood
          dying at the edge instead of inside the enclave *)
  wire : bool;
      (** the canonical lossy-wire plan ({!wire_plan}) was composed on
          top of [fault_plan]; rendered as a final [":wire"] token
          segment *)
  violations : violation list;
  trace_tail : string list;
      (** rendered tail (up to 24 events, oldest first) of the
          runtime's Obs trace ring — captured only when the run failed,
          so every repro token ships with the events that led up to the
          violation; [[]] on success *)
}

val run :
  datapath:datapath ->
  seed:int64 ->
  ?budget:int ->
  ?queues:int ->
  ?faults:Hostos.Faults.plan ->
  ?zerocopy:bool ->
  ?overload:bool ->
  ?wire:bool ->
  schedule ->
  outcome
(** Boot a fresh RAKIS-SGX machine, install the schedule, drive
    [budget] (default 64) verifying workload steps, and collect the
    outcome.  [queues] (default 1) boots the machine with that many
    datapath shards ({!Rakis.Config.num_queues}); fault-plan entries and
    attacks may then pin themselves to one shard ([#<k>] suffix in the
    plan syntax) and [shard_opens] witnesses containment.  A non-empty
    [faults] plan additionally arms a {!Hostos.Faults} injector (seeded
    from [seed], so replays are bit-for-bit) and the enclave watchdog
    ({!Rakis.Runtime.start_watchdog}): attacks and host faults compose
    in one run, and the oracle's verdicts are unchanged — faults may
    only cost availability ([lost]/[refused]), never integrity.
    [zerocopy] (default false) boots the machine with
    {!Rakis.Config.zerocopy}, routing the io_uring workload through
    SEND_ZC / fixed-buffer / multishot paths and exposing the notif
    attacks.  [overload] (default false) boots it with
    {!Rakis.Config.overload}: admission control on every shard and the
    io_uring pending table — refusals surface as accounted [EAGAIN]
    sheds, never silent drops (DESIGN.md §15).  [wire] (default false)
    composes the canonical lossy-wire weather ({!wire_plan}) on top of
    whatever [faults] plan was given — the injector is armed even when
    [faults] is empty — and stamps a final [":wire"] segment on the
    repro token. *)

val wire_plan : Hostos.Faults.plan
(** The canonical hostile-wire weather (DESIGN.md §16): 5%
    {!Hostos.Faults.Wire_drop}, 5% {!Hostos.Faults.Wire_reorder}, 5%
    {!Hostos.Faults.Wire_dup} and 1% {!Hostos.Faults.Wire_trunc},
    probability-triggered over the whole run and unpinned (every
    shard's link is equally bad).  What [run ~wire:true],
    [soak ~wire:true] and the [--wire] CLI flags install. *)

val failed : outcome -> bool
(** Violations, a broken system invariant, [zc_leaks > 0] (the
    dropped-notif attack's footprint at quiescence), or
    [ov_control_shed > 0] (the never-shed-control guarantee broke). *)

val applicable : ?zerocopy:bool -> datapath -> Hostos.Malice.attack list
(** The attacks whose kernel tampering hooks lie on this datapath: the
    two CQE forgeries have no XSK-side hook, the notif forgeries
    need the io_uring datapath with [zerocopy] (default false), and the
    wire attacks (replay / reorder-burst / fragment-storm) live in the
    XDP rx hook so only the XSK datapath carries them.
    [Dropped_notif] is never included — it deterministically fails the
    campaign by leaking a frame, which is the golden dropped-notif
    test's job to witness, not the no-violation singles'. *)

val soup :
  datapath:datapath ->
  ?zerocopy:bool ->
  seed:int64 ->
  ?entries:int ->
  budget:int ->
  unit ->
  schedule
(** Seeded random schedule mixing pinned steps and burst windows over
    the datapath's applicable attacks (under [zerocopy], the notif
    forgeries join the pool). *)

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs, for pairwise campaigns. *)

val fault_soup :
  seed:int64 -> ?entries:int -> budget:int -> unit -> Hostos.Faults.plan
(** Seeded random fault plan (default 6 entries) mixing probabilistic,
    pinned-step and burst triggers.  Monitor crash/hang entries are
    always pinned to a single step — a monitor that probabilistically
    re-dies after every watchdog restart measures the restart rate, not
    recovery. *)

val failover_plan : datapath:datapath -> budget:int -> Hostos.Faults.plan
(** Canonical breaker-failover weather (DESIGN.md §9): one
    probability-1 burst over [budget/8 .. budget/2] — {!Hostos.Faults.Drop_wakeup}
    for [Xsk] (transmission dies, the XSK breaker opens),
    {!Hostos.Faults.Transient_errno} for [Iouring] (every SQE bounces).
    The fault-free tail lets the breaker half-open, probe and fail
    back, so a single run shows the whole degrade/recover arc. *)

val repro : outcome -> string
(** Copy-pasteable replay token:
    ["<datapath>:<seed>:<budget>:<step>=<attack>;…"], with a fifth
    [":<fault-plan>"] segment (syntax of {!Hostos.Faults.plan_to_string})
    appended iff the run had one — so fault runs replay bit-for-bit and
    fault-free single-queue tokens keep the historical 4-segment shape.
    Multi-queue runs always carry a sixth [":q<n>"] segment (after a
    possibly-empty fault segment) recording the shard count, zero-copy
    runs a [":zc"] segment after whatever shape precedes it,
    overload-control runs an [":ov"] segment after that, and
    lossy-wire runs one final [":wire"] segment.  Feed it to
    {!run_repro} or [tm_verify --replay]. *)

val parse_repro :
  string ->
  ( datapath
    * int64
    * int
    * schedule
    * Hostos.Faults.plan
    * int
    * bool
    * bool
    * bool,
    string )
  result
(** Accepts 4-segment (fault-free, plan [[]]), 5-segment (faults) and
    6-segment (faults + [q<n>] shard count) tokens, each optionally
    followed by a literal ["zc"] segment, then a literal ["ov"]
    segment, then a literal ["wire"] segment; the last four tuple
    components are the queue count (1 for the shorter shapes), the
    zero-copy flag, the overload flag and the wire flag. *)

val run_repro : string -> (outcome, string) result

type shrunk = {
  shrunk_schedule : schedule;
  shrunk_plan : Hostos.Faults.plan;
  schedule_original : int;  (** schedule entries before shrinking *)
  plan_original : int;  (** fault-plan entries before shrinking *)
  shrink_tests : int;  (** campaign replays spent *)
}

val shrink_failure : outcome -> shrunk
(** Greedily minimize a failing outcome (re-running the full campaign
    per candidate) to a minimal still-failing repro — both coordinates:
    the attack schedule and the fault plan (either may go empty), plus
    an element pass that drops shard pins ([#k]) the failure does not
    need. *)

val shrunk_repro : outcome -> shrunk -> string
(** The repro token of the minimized failure (same datapath, seed,
    budget and queue count). *)

val pp_schedule : Format.formatter -> schedule -> unit

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Chaos soak (DESIGN.md §15)} *)

type soak_outcome = {
  sk_seed : int64;
  sk_steps : int;
  sk_queues : int;
  sk_offered : int;  (** datagrams the client actually put on the wire *)
  sk_completed : int;  (** tag-matched echoes (any time before run end) *)
  sk_lost : int;  (** offered datagrams never echoed *)
  sk_late : int;
      (** replies that arrived unmatchable (corrupt tag, duplicate) —
          they reached the client, so they offset [sk_lost] in the
          accounting identity *)
  sk_shed : int;  (** overload data-class sheds, summed over controllers *)
  sk_control_shed : int;  (** must be 0: control is never shed *)
  sk_edge_drops : int;  (** NIC-edge drops while fill was throttled *)
  sk_accounted : int;
      (** every accounted loss, each counted once
          ({!Apps.Harness.accounted}) *)
  sk_unaccounted : int;
      (** [max 0 (lost - late - accounted)] ({!Apps.Harness.unaccounted})
          — a non-zero value is a silently lost datagram, which fails
          the soak *)
  sk_latency : Obs.Metrics.summary;  (** completed-op round trips, cycles *)
  sk_slo_p99 : int64;
  sk_slo_ok : bool;  (** [p99 <= slo_p99] (conservative: p99 is a log2
                         bucket upper bound) *)
  sk_baseline_kops : float;  (** goodput before the flash crowd *)
  sk_crowd_kops : float;
  sk_recovery_kops : float;
  sk_recovered : bool;
      (** some post-crowd 100 µs window reached >= 95% of baseline *)
  sk_recovery_window : int option;
  sk_breaker_opens : int;
  sk_watchdog_restarts : int;
  sk_stalled : bool;  (** the driver did not finish inside the horizon *)
  sk_wire : bool;
      (** the canonical lossy-wire plan ({!wire_plan}) was composed on
          top of the rolling shard faults *)
  sk_repro : string;
      (** ["soak:<seed>:<steps>:q<n>[:wire]"] — feed the parameters
          back to {!soak} (the trailing segment is [~wire:true]) to
          replay *)
}

val soak :
  ?steps:int ->
  ?queues:int ->
  ?seed:int64 ->
  ?slo_p99:int64 ->
  ?wire:bool ->
  unit ->
  soak_outcome
(** Run the chaos soak: the XSK UDP echo workload on a multi-queue
    machine booted with {!Rakis.Config.overload}, [steps] (default
    100_000) datagrams across {!soak_flows} flows — closed-loop for the
    first 40%, an open-loop flash-crowd blast for the middle 20%,
    closed-loop recovery for the rest — composed with a rolling
    shard-pinned {!Hostos.Faults.Drop_wakeup} plan and a seeded malice
    soup.  [wire] (default false) additionally installs the canonical
    lossy-wire weather ({!wire_plan}) for the whole run.
    Deterministic in [(seed, steps, queues, wire)]. *)

val soak_failed : soak_outcome -> bool
(** The soak's gates: a stall, an unaccounted datagram, a shed control
    op, a p99 SLO breach, or goodput that never recovered. *)

val soak_flows : int

val pp_soak_outcome : Format.formatter -> soak_outcome -> unit
