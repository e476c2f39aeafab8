(* perfbench: the repository's benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 repeats the workload (same seed, fresh harness each time)
   until S host seconds have passed, checks that every repetition
   produced identical simulated results, and prints the end-to-end
   metrics: host metrics as the median over repetitions, simulated
   metrics from the (identical) repetitions.

   --trace 1 repeats the workload untraced for half of S, then once
   traced, checks that the traced run's simulated results equal the
   untraced ones, and prints the per-layer metrics: counts, call spans,
   the tracing overhead and the standalone replays of the layers that
   have no public boundary inside a run.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

let usage () =
  Printf.eprintf "usage: bench.exe --workload %s --seed N --seconds S --trace 0|1\n"
    (String.concat "|" Workload.names);
  exit 2

let args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        go rest
    | "--seconds" :: n :: rest ->
        seconds := int_of_string n;
        go rest
    | "--trace" :: n :: rest ->
        trace := int_of_string n;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload Workload.names) then usage ();
  if !trace <> 0 && !trace <> 1 then usage ();
  (!workload, !seed, !seconds, !trace = 1)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum f legs = List.fold_left (fun acc l -> acc + f l) 0 legs

let sumf f legs = List.fold_left (fun acc l -> acc +. f l) 0. legs

(* {1 One repetition} *)

type rep = {
  setup_s : float;
  timed_s : float;
  completed : int;
  attempted : int;
  failed : int;
  words_per_op : float;
  live_mb : float;  (** live heap when the first leg's timed region ends *)
  sim : (string * float) list;  (** simulated end-to-end metrics *)
  healthy : string list;  (** reasons the run is not correct *)
}

let us cycles = float_of_int cycles /. 2400.

(* Ops that completed within the latency objective, per simulated
   second of the leg. *)
let slo_kops (g : Workload.leg) =
  let l = g.ledger in
  let within = ref 0 in
  Array.iteri
    (fun i f ->
      if f = Ledger.Ok && l.Ledger.fin.(i) - l.Ledger.due.(i) <= Workload.slo_p99
      then incr within)
    l.Ledger.fate;
  float_of_int !within /. (float_of_int (Ledger.span l) /. 2.4e9) /. 1e3

(* The highest grid rate meeting the SLO (p99 and failure share), as
   the grid workloads define it; 0 when none does. *)
let grid_max_kops legs =
  List.fold_left
    (fun m (g : Workload.leg) ->
      if Workload.meets_slo g then max m g.offered_kops else m)
    0. legs

let sim_metrics legs =
  let p = List.hd legs in
  let l = p.Workload.ledger in
  let s = Ledger.samples l in
  let span_s = float_of_int (Ledger.span l) /. 2.4e9 in
  [
    ("sim_kops", float_of_int (Ledger.completed l) /. span_s /. 1e3);
    ("sim_slo_kops", List.fold_left (fun m g -> max m (slo_kops g)) 0. legs);
    ( "sim_goodput_gbps",
      float_of_int (Ledger.verified_bytes l) *. 8. /. span_s /. 1e9 );
    ("sim_p50_us", us (Ledger.percentile s 0.5));
    ("sim_p99_us", us (Ledger.percentile s 0.99));
    ("sim_p999_us", us (Ledger.percentile s 0.999));
    ( "ok_frac",
      1. -. (float_of_int (Ledger.failed l) /. float_of_int (Ledger.attempted l))
    );
  ]

(* One repetition, and its legs for whoever needs more than the
   summary (the legs hold whole simulated machines: drop them soon). *)
let rep ?(keep = false) workload ~seed ~traced =
  let legs = Workload.run workload ~seed ~traced ~keep in
  let completed = sum (fun g -> Ledger.completed g.Workload.ledger) legs in
  ( {
    setup_s = sumf (fun g -> g.Workload.setup_s) legs;
    timed_s = sumf (fun g -> g.Workload.timed_s) legs;
    completed;
    attempted = sum (fun g -> Ledger.attempted g.Workload.ledger) legs;
    failed = sum (fun g -> Ledger.failed g.Workload.ledger) legs;
    words_per_op = sumf (fun g -> g.Workload.words) legs /. float_of_int (max 1 completed);
    live_mb =
      float_of_int ((List.hd legs).Workload.live_words * (Sys.word_size / 8))
      /. 1048576.;
    sim = sim_metrics legs;
    healthy = List.concat_map (fun g -> g.Workload.problems) legs;
  },
    legs )

(* {1 Output} *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
       ms)

(* A metric that is not a finite number fails the run (JSON has no
   NaN); it is printed as 0. *)
let print_result ~correct ~attempted ~failed ms =
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) ms in
  if not finite then prerr_endline "FAILED RUN: a metric is not a finite number";
  let ms = List.map (fun (k, u, v) -> (k, u, if Float.is_finite v then v else 0.)) ms in
  let correct = correct && finite in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics ms)

(* Completed ops per host second of the timed region.  The host's speed
   drifts by more than a tenth between runs, so this is a per-layer
   metric (README.md, "Why host_ops_per_s is per-layer"). *)
let host_rate r = float_of_int r.completed /. r.timed_s

let sim_units =
  [
    ("sim_kops", "kops");
    ("sim_slo_kops", "kops");
    ("sim_goodput_gbps", "Gbps");
    ("sim_p50_us", "us");
    ("sim_p99_us", "us");
    ("sim_p999_us", "us");
    ("ok_frac", "ratio");
  ]

let describe r legs =
  let p = List.hd legs in
  let s = Ledger.samples p.Workload.ledger in
  Printf.eprintf
    "  legs:%s\n  samples %d (p99.9 %s), attempted %d, failed %d, shed %d\n"
    (String.concat ""
       (List.map
          (fun (g : Workload.leg) ->
            let gs = Ledger.samples g.ledger in
            Printf.sprintf " [%s: p99 %.1fus fail %d/%d]" g.label
              (us (Ledger.percentile gs 0.99))
              (Ledger.failed g.ledger) (Ledger.attempted g.ledger))
          legs))
    (Array.length s)
    (if Ledger.supports s 0.999 then "supported" else "NOT supported")
    r.attempted r.failed
    (sum (fun g -> Ledger.shed_count g.Workload.ledger) legs);
  List.iter (fun (k, v) -> Printf.eprintf "  %s = %.6g\n" k v) r.sim;
  Printf.eprintf "  grid rate meeting the SLO: %.6g kops\n" (grid_max_kops legs)

let end_to_end workload ~seed ~seconds =
  let t_end = Unix.gettimeofday () +. float_of_int seconds in
  let first =
    let r, legs = rep workload ~seed ~traced:false in
    describe r legs;
    r
  in
  let rec more acc =
    if Unix.gettimeofday () >= t_end && List.length acc >= 3 then List.rev acc
    else more (fst (rep workload ~seed ~traced:false) :: acc)
  in
  let reps = first :: more [] in
  let nondet =
    List.exists
      (fun r -> r.sim <> first.sim || r.words_per_op <> first.words_per_op)
      reps
  in
  let words = List.map (fun r -> r.words_per_op) reps in
  let problems =
    List.sort_uniq compare (List.concat_map (fun r -> r.healthy) reps)
    @
    if nondet then [ "simulated results or allocation differ between repetitions" ]
    else []
  in
  List.iter (fun p -> Printf.eprintf "FAILED RUN: %s\n" p) problems;
  Printf.eprintf "  %d repetitions; alloc words/op %s\n" (List.length reps)
    (String.concat " " (List.map (Printf.sprintf "%.1f") words));
  Printf.eprintf "  host ops/s (per-layer metric, see README.md) %.6g\n"
    (median (List.map host_rate reps));
  let ms =
    [
      ("setup_s", "s", median (List.map (fun r -> r.setup_s) reps));
      ("alloc_words_per_op", "words", median words);
      ("live_heap_mb", "MB", median (List.map (fun r -> r.live_mb) reps));
    ]
    @ List.map (fun (k, v) -> (k, List.assoc k sim_units, v)) first.sim
  in
  print_result ~correct:(problems = []) ~attempted:first.attempted
    ~failed:first.failed ms

(* The traced run.  Untraced repetitions fill the first half of the
   time (their median host time is the base of the tracing overhead),
   then one traced repetition gives the per-layer numbers; its
   simulated results must match the untraced ones exactly. *)
let per_layer workload ~seed ~seconds =
  let t_half = Unix.gettimeofday () +. (float_of_int seconds /. 2.) in
  (* Keep the last untraced repetition's primary leg (its machine is
     compared with the traced one) and every repetition's host time and
     rate. *)
  let rec untraced times rates =
    let r, legs = rep ~keep:true workload ~seed ~traced:false in
    let times = (List.hd legs).Workload.timed_s :: times in
    let rates = host_rate r :: rates in
    if Unix.gettimeofday () >= t_half then (r, List.hd legs, times, rates)
    else untraced times rates
  in
  let ur, up, times, rates = untraced [] [] in
  let base_s = median times in
  let tr, tlegs = rep ~keep:true workload ~seed ~traced:true in
  let tp = List.hd tlegs in
  describe tr tlegs;
  let counters (l : Workload.leg) =
    Obs.Metrics.counters (Counters.registry (Option.get l.harness))
  in
  let same =
    sim_metrics [ up ] = sim_metrics [ tp ]
    && counters up = counters tp
  in
  let problems =
    List.sort_uniq compare (ur.healthy @ tr.healthy)
    @ if same then [] else [ "traced and untraced runs differ in simulated results" ]
  in
  List.iter (fun p -> Printf.eprintf "FAILED RUN: %s\n" p) problems;
  (match tp.Workload.tracer with
  | Some t ->
      let dir = ".bench_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path =
        Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed)
      in
      Tracer.write_chrome t tp.Workload.ledger path;
      Printf.eprintf "  wrote %s (%d spans)\n" path (Tracer.span_count t)
  | None -> ());
  let ms =
    ("host_ops_per_s", "1/s", median rates)
    :: Layers.metrics
         { Layers.workload; traced = tp; untraced = { up with timed_s = base_s } }
  in
  List.iter (fun (k, u, v) -> Printf.eprintf "  %-32s %14.6g %s\n" k v u) ms;
  print_result ~correct:(problems = []) ~attempted:tr.attempted
    ~failed:tr.failed ms

let () =
  let workload, seed, seconds, traced = args () in
  Printf.eprintf "perfbench %s seed %d seconds %d trace %b\n%!" workload seed
    seconds traced;
  if traced then per_layer workload ~seed ~seconds
  else end_to_end workload ~seed ~seconds
