(** KV load generator for the overload-control evaluation (ROADMAP
    item 3, DESIGN.md §15).

    Drives {!Memcached.server} over XSK UDP with configurable load
    shapes: open- or closed-loop arrival, Zipf key popularity, a flash
    crowd (extra full-throttle connections joining at a configured
    offered-count, then leaving) and connection churn.

    Accounting discipline: every offered op terminates as exactly one
    of [completed] / [shed] (synchronous [EAGAIN]) / [lost] (no reply
    within [timeout]); replies that arrive after their op was declared
    lost are drained and counted [late].  [unaccounted] checks
    [lost - late - rdp_gave_up] against the accounted loss counters —
    any remainder is silent loss, which is a bug.  Goodput is tracked
    per phase (baseline / crowd / recovery), with the recovery phase
    split into 100 µs windows so "goodput recovers to >= 95% of
    baseline" means some window actually gets there, not just the
    phase average (metastable failure detection). *)

type mode =
  | Closed of { think : int64 }
      (** Each connection waits for its reply (or timeout), optionally
          thinks [think] cycles, then offers the next op. *)
  | Open of { interarrival : int64 }
      (** Each connection offers one op every [interarrival] cycles
          regardless of replies; a per-connection receiver fiber
          matches replies FIFO against send timestamps. *)

type flash = {
  at_op : int;  (** trigger when this many base ops have been offered *)
  extra_connections : int;
  crowd_ops : int;  (** total ops the crowd offers before leaving *)
}

type config = {
  mode : mode;
  connections : int;
  ops : int;  (** base ops offered across all connections *)
  value_size : int;
  zipf : float;  (** key-popularity skew [s]; [0.] = uniform *)
  key_space : int;
  set_every : int;  (** 1-in-N ops is a SET; [0] = all GETs *)
  timeout : int64;  (** per-op reply deadline, cycles *)
  retries : int;  (** timed-out op resends; keep [0] for soak accounting *)
  flash : flash option;
  churn_every : int;  (** close/reopen the socket every N ops; [0] = never *)
  rdp : bool;
      (** run client and server over {!Netstack.Rdp} reliable
          datagrams: the link's retransmit clock absorbs wire faults
          (drop / duplicate / reorder / truncation) before they cost
          an op its [timeout], request dedup keeps a retried SET from
          executing twice, and abandoned datagrams surface as
          [rdp_gave_up] — counted, never silent *)
  seed : int64;
}

val default : config
(** Closed-loop, 32 connections, 20k ops, Zipf 0.99, 9:1 GET/SET,
    300 µs timeout, no retries, no flash crowd, no churn. *)

type stats = {
  offered : int;
  completed : int;
  shed : int;
  lost : int;
  late : int;
  retried : int;
  rdp_retransmits : int;  (** client-link RDP retransmissions ([rdp] only) *)
  rdp_gave_up : int;
      (** datagrams the client links abandoned after retry exhaustion —
          accounted loss, subtracted by the silent-loss checks *)
  unaccounted : int;
      (** ops lost beyond [late], [rdp_gave_up] and every accounted loss
          counter ({!Harness.unaccounted}): silent loss, a bug whenever
          positive *)
  latency : Obs.Metrics.summary;  (** per-op round trip, cycles *)
  duration : Sim.Engine.time;
  goodput_kops : float;
  baseline_kops : float;  (** goodput before the flash crowd *)
  crowd_kops : float;
  recovery_kops : float;
  recovered : bool;
      (** some post-crowd window reached >= 95% of baseline goodput
          (vacuously true without a flash crowd) *)
  recovery_window : int option;
      (** index of the first such 100 µs window after the crowd left *)
}

val run : ?config:config -> Harness.t -> server_threads:int -> stats
(** Boot the memcached server on the harness environment, offer the
    configured load from the native peer, and run to completion (60 s
    simulated-time safety cap). *)

val pp_stats : Format.formatter -> stats -> unit
