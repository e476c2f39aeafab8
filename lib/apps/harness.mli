(** Experiment harness: one simulated machine, a workload environment
    and a Native peer (the paper runs benchmark clients natively in
    their own network namespace on the same box). *)

type t = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  env : Libos.Env.t;  (** the environment under test *)
  peer : Libos.Api.t;  (** native peer (client or server, per workload) *)
}

val make :
  Libos.Env.kind ->
  ?rakis_config:Rakis.Config.t ->
  ?nic_queues:int ->
  unit ->
  (t, string) result

val api : t -> Libos.Api.t
(** The environment-under-test's syscall surface. *)

val run : ?until:Sim.Engine.time -> t -> unit
(** Drive the simulation until {!Sim.Engine.stop} or the horizon. *)

val stop : t -> unit

val seconds : t -> float
(** Simulated seconds elapsed. *)

(** {1 Loss accounting: the one owner (DESIGN.md §15)} *)

val accounted : t -> int
(** Every datagram death with a counter, each counted once:
    [accounted_losses] of {!Rakis.Runtime.totals} ([0] off RAKIS), the client
    kernel's [udp.no_socket_drops], [udp.buffer_drops] and
    [udp.close_drops], and both NICs' queue overflows
    ({!Hostos.Nic.drops}). *)

val unaccounted : t -> missing:int -> int
(** [max 0 (missing - accounted t)]: silent loss, which fails every
    gate.  [missing] is what the client books cannot explain (lost -
    late - RDP give-ups). *)

(** {1 The paper's headline claim as an end-of-run verdict} *)

type fast_path =
  | Held
  | Broken of string list  (** one entry per failed clause, with its count *)
  | Not_applicable  (** not a RAKIS environment, or not an honest host *)

val fast_path_verdict : t -> fast_path
(** Once the datapath is up, RAKIS serves I/O with zero enclave exits
    (paper §4, Figure 2).  On an honest host — no fault plan (hence no
    wire weather) and no malice installed — a RAKIS run holds the
    verdict iff it shows no enclave exit beyond
    {!Rakis.Runtime.setup_exits} other than the syscalls RAKIS does not
    accelerate ([host_call_exits]: socket setup, [open], [close],
    metadata), no [health.slow_calls], no breaker
    open, no ring-check failure, no UMem reject and no CQE reject, all
    read from {!Rakis.Runtime.totals}. *)

val pp_fast_path : Format.formatter -> fast_path -> unit
