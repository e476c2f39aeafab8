(** Deterministic adversarial campaign engine (Testing Module, §5).

    Runs full enclave↔host simulations — XSK UDP echo, io_uring
    file/TCP workloads via the SyncProxy, Monitor-driven wakeups —
    under {e schedules} of {!Hostos.Malice} attacks: single attacks
    pinned to a step, pairwise combinations, or RNG-driven soups.
    Every run is seeded and the simulator is deterministic, so any
    outcome replays exactly from its {!params}, printed as a repro
    token by {!repro}.

    Violations are Table 2 contract breaches only: a broken certified
    invariant, corrupted data acted on as if intact, an out-of-range
    transfer count, or a stalled workload.  Detected refusals (EPERM,
    rejected indices, dropped frames) and data-level corruption while
    [Corrupt_packet] is live (deliberately unchecked by RAKIS — TLS
    territory) are counted separately, not as violations. *)

type datapath = Xsk | Iouring

val datapath_name : datapath -> string
(** ["xsk"] or ["io_uring"], also the kind of its repro tokens. *)

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

type params = {
  datapath : datapath;
  seed : int64;
  budget : int;  (** workload steps driven *)
  queues : int;  (** datapath shards the machine boots with *)
  schedule : schedule;
  faults : Hostos.Faults.plan;
      (** host-fault schedule ([[]] = fault-free: the injector and
          watchdog are not armed unless [wire] is set) *)
  zerocopy : bool;
      (** boot with {!Rakis.Config.zerocopy}: SEND_ZC, fixed-buffer file
          IO and multishot recv on the io_uring datapath
          (docs/zerocopy.md) *)
  overload : bool;
      (** boot with {!Rakis.Config.overload}: CoDel/watermark admission
          control on every shard plus the io_uring pending table
          (DESIGN.md §15) *)
  wire : bool;
      (** compose the canonical lossy-wire plan ({!wire_plan}) on top of
          [faults] *)
}
(** Everything that identifies a campaign run — the one description
    {!run} consumes, {!outcome} carries and the repro token encodes. *)

val default : params
(** XSK, seed 0, budget 64, one queue, no schedule, no faults, every
    flag off: the base for [{ default with ... }]. *)

type outcome = {
  params : params;  (** the run's coordinates: replay with {!run} *)
  steps_run : int;
  ok : int;  (** operations verified against the golden model *)
  late_ok : int;  (** verified operations in the last quarter (recovery) *)
  refused : int;  (** detected-and-refused operations *)
  lost : int;  (** timeouts / drops (availability, not integrity) *)
  tolerated : int;  (** mismatches while a data-level attack was live *)
  fired : (Hostos.Malice.attack * int) list;
  injected : (Hostos.Faults.fault * int) list;
      (** faults actually injected, with counts *)
  invariant_ok : bool;
  watchdog_restarts : int;  (** Monitor restarts by the watchdog *)
  degraded_scans : int;  (** in-enclave scans run in the MM's stead *)
  totals : Rakis.Runtime.totals;
      (** the machine's end-of-run totals: certified-ring and
          descriptor rejections, breaker activity ([shard_opens] is the
          containment witness), zero-copy and overload counters *)
  violations : violation list;
  trace_tail : string list;
      (** rendered tail (up to 24 events, oldest first) of the
          runtime's Obs trace ring — captured only when the run failed,
          so every repro token ships with the events that led up to the
          violation; [[]] on success *)
}

val run : params -> outcome
(** Boot a fresh RAKIS-SGX machine, install the schedule, drive
    [budget] verifying workload steps, and collect the outcome.
    [queues] boots the machine with that many datapath shards
    ({!Rakis.Config.num_queues}); fault-plan entries and attacks may
    then pin themselves to one shard ([#<k>] suffix in the plan syntax)
    and [totals.shard_opens] witnesses containment.  A non-empty [faults] plan
    additionally arms a {!Hostos.Faults} injector (seeded from [seed],
    so replays are bit-for-bit) and the enclave watchdog
    ({!Rakis.Runtime.start_watchdog}): attacks and host faults compose
    in one run, and the oracle's verdicts are unchanged — faults may
    only cost availability ([lost]/[refused]), never integrity.
    [zerocopy] routes the io_uring workload through SEND_ZC /
    fixed-buffer / multishot paths and exposes the notif attacks.
    [overload] turns refusals into accounted [EAGAIN] sheds, never
    silent drops (DESIGN.md §15).  [wire] composes the canonical
    lossy-wire weather ({!wire_plan}) on top of whatever [faults] plan
    was given — the injector is armed even when [faults] is empty. *)

val wire_plan : Hostos.Faults.plan
(** The canonical hostile-wire weather (DESIGN.md §16): 5%
    {!Hostos.Faults.Wire_drop}, 5% {!Hostos.Faults.Wire_reorder}, 5%
    {!Hostos.Faults.Wire_dup} and 1% {!Hostos.Faults.Wire_trunc},
    probability-triggered over the whole run and unpinned (every
    shard's link is equally bad).  What [wire = true] in {!params} or
    {!soak_params} and the [--wire] CLI flags install. *)

val failed : outcome -> bool
(** Violations, a broken system invariant, [totals.zc_leaks > 0] (the
    dropped-notif attack's footprint at quiescence), or
    [totals.control_shed > 0] (the never-shed-control guarantee broke). *)

val read_back :
  (Bytes.t * int) list -> off:int -> Bytes.t -> int -> (Bytes.t * int, string) result
(** The io_uring workload's file oracle.  [read_back candidates ~off buf n]
    judges a read of [n] bytes into [buf] (which asked for
    [Bytes.length buf] bytes at offset [off]) against candidate file
    states [(image, length)], in order.  A write the FM refused with
    [EPERM] leaves two candidates, the new state and the old one: the
    enclave cannot know whether the host ran it (Table 2).  Returns the
    first candidate the read matches, bytes and length alike, or the
    first candidate's mismatch. *)

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

type shrunk = {
  shrunk : params;  (** the minimal still-failing run *)
  schedule_original : int;  (** schedule entries before shrinking *)
  plan_original : int;  (** fault-plan entries before shrinking *)
  shrink_tests : int;  (** campaign replays spent *)
}

val shrink_failure : outcome -> shrunk
(** Greedily minimize a failing outcome (re-running the full campaign
    per candidate) to a minimal still-failing run — both coordinates:
    the attack schedule and the fault plan (either may go empty), plus
    an element pass that drops shard pins ([#k]) the failure does not
    need.  Every other coordinate of [o.params] is kept. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {1 Chaos soak (DESIGN.md §15)} *)

type soak_params = {
  sk_seed : int64;
  sk_steps : int;  (** flow datagrams driven *)
  sk_queues : int;  (** datapath shards the machine boots with *)
  sk_slo_p99 : int64;  (** p99 round-trip SLO, cycles *)
  sk_wire : bool;
      (** compose the canonical lossy-wire plan ({!wire_plan}) on top of
          the rolling shard faults *)
}
(** Everything that identifies a soak run. *)

val default_soak : soak_params
(** Seed [0x50AD5EED], 100 000 steps, 2 queues, the
    {!Rakis.Config.default} SLO, no wire weather. *)

type soak_outcome = {
  sk_params : soak_params;  (** the run's coordinates: replay with {!soak} *)
  sk_offered : int;  (** datagrams the client actually put on the wire *)
  sk_completed : int;  (** tag-matched echoes (any time before run end) *)
  sk_lost : int;  (** offered datagrams never echoed *)
  sk_late : int;
      (** replies that arrived unmatchable (corrupt tag, duplicate) —
          they reached the client, so they offset [sk_lost] in the
          accounting identity *)
  sk_accounted : int;
      (** every accounted loss, each counted once
          ({!Apps.Harness.accounted}) *)
  sk_unaccounted : int;
      (** [max 0 (lost - late - accounted)] ({!Apps.Harness.unaccounted})
          — a non-zero value is a silently lost datagram, which fails
          the soak *)
  sk_latency : Obs.Metrics.summary;  (** completed-op round trips, cycles *)
  sk_slo_ok : bool;  (** [p99 <= slo_p99] (conservative: p99 is a log2
                         bucket upper bound) *)
  sk_baseline_kops : float;  (** goodput before the flash crowd *)
  sk_crowd_kops : float;
  sk_recovery_kops : float;
  sk_recovered : bool;
      (** some post-crowd 100 µs window reached >= 95% of baseline *)
  sk_recovery_window : int option;
  sk_watchdog_restarts : int;
  sk_totals : Rakis.Runtime.totals;
      (** end-of-run totals: overload sheds (control sheds must be 0),
          NIC-edge drops, breaker trips *)
  sk_stalled : bool;  (** the driver did not finish inside the horizon *)
}

val soak : soak_params -> soak_outcome
(** Run the chaos soak: the XSK UDP echo workload on a multi-queue
    machine booted with {!Rakis.Config.overload}, [steps] datagrams
    across 8 flows — closed-loop for the first 40%, an
    open-loop flash-crowd blast for the middle 20%, closed-loop recovery
    for the rest — composed with a rolling shard-pinned
    {!Hostos.Faults.Drop_wakeup} plan and a seeded malice soup.  [wire]
    additionally installs the canonical lossy-wire weather
    ({!wire_plan}) for the whole run.  Deterministic in its
    {!soak_params}. *)

val soak_failed : soak_outcome -> bool
(** The soak's gates: a stall, an unaccounted datagram, a shed control
    op, a p99 SLO breach, or goodput that never recovered. *)

val pp_soak_outcome : Format.formatter -> soak_outcome -> unit

(** {1 Repro tokens} *)

type token = Run of params | Soak of soak_params
(** The two kinds of replayable run. *)

val repro : token -> string
(** The copy-pasteable replay token [kind:key=value:…]: the kind is
    [xsk], [io_uring] or [soak], then one [key=value] segment per
    coordinate, in a fixed order.  Keys at their default are omitted,
    except [seed] (and, for the soak, [steps] and [q]).
    - campaign keys: [seed], [budget], [sched] (the schedule,
      [<step>=<attack>] and [<first>..<last>@<p>=<attack>] entries
      joined by [;]), [faults] (syntax of {!Hostos.Faults.plan_to_string}),
      [q] (queue count), and the flags [zc], [ov], [wire] ([1] when set);
    - soak keys: [seed], [steps], [q], [slo] (cycles), [wire].
    Feed it to {!parse_repro} or [tm_verify --replay]. *)

val parse_repro : string -> (token, string) result
(** Inverse of {!repro}.  A segment splits at its first [=], so the
    schedule and fault-plan syntaxes pass through untouched; key order
    is free and a missing key takes its default.  An unknown kind, an
    unknown or duplicate key, a segment without [=] or a bad value is an
    [Error] naming it. *)
