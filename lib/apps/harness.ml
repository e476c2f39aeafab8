type t = {
  engine : Sim.Engine.t;
  kernel : Hostos.Kernel.t;
  env : Libos.Env.t;
  peer : Libos.Api.t;
}

let make kind ?rakis_config ?(nic_queues = 4) () =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine ~nic_queues () in
  match Libos.Env.create kernel kind ?rakis_config () with
  | Error e -> Error e
  | Ok env -> Ok { engine; kernel; env; peer = Libos.Hostapi.native kernel }

let api t = Libos.Env.api t.env

let run ?until t = Sim.Engine.run ?until t.engine

let stop t = Sim.Engine.stop t.engine

let seconds t = Sim.Cycles.to_sec (Sim.Engine.now t.engine)

let accounted t =
  let kstats = Sim.Engine.stats t.engine in
  (match Libos.Env.runtime t.env with
  | Some rt -> (Rakis.Runtime.totals rt).accounted_losses
  | None -> 0)
  + Sim.Stats.get kstats "udp.no_socket_drops"
  + Sim.Stats.get kstats "udp.buffer_drops"
  + Sim.Stats.get kstats "udp.close_drops"
  + Hostos.Nic.drops (Hostos.Kernel.nic t.kernel 0)
  + Hostos.Nic.drops (Hostos.Kernel.nic t.kernel 1)

let unaccounted t ~missing = max 0 (missing - accounted t)

type fast_path = Held | Broken of string list | Not_applicable

let fast_path_verdict t =
  match Libos.Env.runtime t.env with
  | None -> Not_applicable
  | Some _
    when Hostos.Kernel.faults t.kernel <> None
         || Hostos.Kernel.malice t.kernel <> None ->
      Not_applicable
  | Some rt ->
      let tot = Rakis.Runtime.totals rt in
      let clauses =
        [
          ( "enclave exits after boot other than unaccelerated syscalls",
            Libos.Env.exits t.env - Rakis.Runtime.setup_exits rt
            - tot.host_call_exits );
          ("health.slow_calls", tot.slow_calls);
          ("breaker opens", tot.breaker_opens);
          ("ring-check failures", tot.ring_check_failures);
          ("UMem rejects", tot.umem_rejects);
          ("CQE rejects", tot.cqe_rejects);
        ]
      in
      match
        List.filter_map
          (fun (what, n) ->
            if n = 0 then None else Some (Printf.sprintf "%s %d" what n))
          clauses
      with
      | [] -> Held
      | broken -> Broken broken

let pp_fast_path ppf = function
  | Held -> Format.fprintf ppf "held"
  | Broken clauses ->
      Format.fprintf ppf "BROKEN (%s)" (String.concat ", " clauses)
  | Not_applicable -> Format.fprintf ppf "n/a (not an honest RAKIS run)"
