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
  | Some rt -> Rakis.Runtime.accounted_losses rt
  | None -> 0)
  + Sim.Stats.get kstats "udp.no_socket_drops"
  + Sim.Stats.get kstats "udp.buffer_drops"
  + Sim.Stats.get kstats "udp.close_drops"
  + Hostos.Nic.drops (Hostos.Kernel.nic t.kernel 0)
  + Hostos.Nic.drops (Hostos.Kernel.nic t.kernel 1)

let unaccounted t ~missing = max 0 (missing - accounted t)
