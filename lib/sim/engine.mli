(** Discrete-event simulation engine.

    Time is a simulated CPU-cycle counter ([int64]); nothing here touches
    the wall clock, so every run is deterministic.  Concurrency is
    expressed with lightweight processes implemented on OCaml 5 effect
    handlers: a process is a plain [unit -> unit] function that may call
    {!delay}, {!yield} or {!suspend} (directly or through {!Condition} /
    {!Mailbox}), which suspend it and hand control back to the scheduler.

    The engine is strictly single-threaded: processes interleave only at
    suspension points, so shared state needs no locking (simulated locks
    exist purely to model contention costs). *)

type time = int64
(** Simulated time in CPU cycles since the start of the run.  Times and
    delays of 2{^62} cycles or more saturate at the end of time. *)

type t
(** A simulation engine instance: clock, event queue and statistics. *)

exception Not_in_process
(** Raised when {!delay} or {!suspend} is performed outside a process
    spawned on an engine. *)

val create : unit -> t

val now : t -> time
(** Current simulated time. *)

val stats : t -> Stats.t
(** The statistics registry attached to this engine. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] schedules process [f] to start at the current simulated
    time.  [name] labels error reports.  An exception escaping [f] aborts
    the whole run and is re-raised from {!run}. *)

val at : t -> time -> (unit -> unit) -> unit
(** [at t time f] runs callback [f] (not a process: it must not suspend)
    at absolute time [time].  Times in the past run "now". *)

val delay : time -> unit
(** [delay d] suspends the calling process for [d] cycles.  Outside any
    process (setup code running before {!run}) it is a no-op: simulated
    time cannot advance there and setup costs precede every measurement
    window. *)

val yield : unit -> unit
(** Suspend and resume at the same simulated time, after other events
    already scheduled for that time. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] suspends the calling process and calls
    [register waker].  Invoking [waker] (at most once takes effect)
    reschedules the process at the then-current simulated time.  This is
    the primitive under {!Condition.wait}. *)

val stop : t -> unit
(** Request the run loop to return after the current event.  Used by
    workloads to end a run while server processes are still live. *)

val run : ?until:time -> t -> unit
(** Execute events in (time, scheduling order) order until the queue is
    empty, [stop] was called, or the clock would pass [until]; in the
    last case the clock advances to [until] but never moves back.  May
    be called again to resume after a [stop] or [until] cut-off. *)

val pending : t -> int
(** Number of queued events (diagnostic). *)

val in_process : unit -> bool
(** Whether the caller is executing inside a simulated process (i.e.
    suspension is possible). *)
