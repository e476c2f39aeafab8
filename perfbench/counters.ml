(* Sums over the runtime's Obs registry and the engine's stats. *)

(* Instance-free form of a metric name: numeric components dropped and
   trailing digits stripped, so "xsk0.umem.rejects" and
   "xsk.1.2.umem.rejects" both read "xsk.umem.rejects". *)
let canonical name =
  String.split_on_char '.' name
  |> List.filter_map (fun part ->
         let n = String.length part in
         let k = ref n in
         while !k > 0 && part.[!k - 1] >= '0' && part.[!k - 1] <= '9' do
           decr k
         done;
         if !k = 0 then None else Some (String.sub part 0 !k))
  |> String.concat "."

let runtime (h : Apps.Harness.t) =
  match Libos.Env.runtime h.Apps.Harness.env with
  | Some rt -> rt
  | None -> failwith "rakis-sgx has no runtime"

let registry h = Obs.metrics (Rakis.Runtime.obs (runtime h))

(* Sum of every counter whose canonical name is [name]. *)
let counter h name =
  List.fold_left
    (fun acc (k, v) -> if canonical k = name then acc + v else acc)
    0
    (Obs.Metrics.counters (registry h))

(* Summed (count, sum) of every histogram whose canonical name is
   [name]. *)
let histogram h name =
  List.fold_left
    (fun (c, s) hist ->
      if canonical (Obs.Metrics.histogram_name hist) = name then
        (c + Obs.Metrics.count hist, s + Obs.Metrics.sum hist)
      else (c, s))
    (0, 0)
    (Obs.Metrics.histograms (registry h))

(* Engine stats counters matching [prefix]*[suffix]. *)
let engine_stat (h : Apps.Harness.t) ~prefix ~suffix =
  List.fold_left
    (fun acc (k, v) ->
      if
        String.length k >= String.length prefix
        && String.sub k 0 (String.length prefix) = prefix
        && Filename.check_suffix k suffix
      then acc + v
      else acc)
    0
    (Sim.Stats.counters (Sim.Engine.stats h.Apps.Harness.engine))

let umem_rejects h = counter h "xsk.umem.rejects"

