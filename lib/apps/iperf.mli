(** iperf3-style UDP throughput benchmark (paper §6.1, Figure 4(a)).

    The server runs in the environment under test; the client runs
    natively (its own network namespace in the paper) and offers load at
    up to the link rate.  Both use only the portable {!Libos.Api}
    surface — the same code under all five environments. *)

type result = {
  env : string;
  packet_size : int;
  sent_packets : int;
  received_packets : int;
  received_bytes : int;
  duration : Sim.Engine.time;  (** first-to-last datagram at the server *)
  goodput_gbps : float;
  loss : float;  (** fraction of offered datagrams not delivered *)
  gap_p50 : int;
      (** server-side inter-arrival gap percentiles in cycles
          (conservative log2-bucket upper bounds) *)
  gap_p99 : int;
  shards : Shards.report option;
      (** per-shard exit accounting ([None] for non-RAKIS baselines);
          {!run} fails on a silently idle shard (see {!Shards}) *)
  ended_at_horizon : bool;
      (** no FIN ended the run: it ran to the simulated-time horizon,
          so its figures do not describe a finished transfer *)
}

val port : int

val run :
  ?streams:int ->
  ?src_ports:int list ->
  Harness.t ->
  packet_size:int ->
  packets:int ->
  result
(** Runs the full simulation; returns the server-side measurement.
    [streams] parallel senders (default 4) model the paper's 25 Gbps
    offered load, split evenly over [packets].  [src_ports] (see
    {!Shards.spread_ports}) binds stream [i] to a deterministic client
    port so RSS spreads the streams uniformly over the datapath shards;
    by default streams use ephemeral ports and land where the Toeplitz
    hash takes them. *)

val pp_result : Format.formatter -> result -> unit
