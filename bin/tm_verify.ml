(* Testing Module verification binary (paper §5.1's verification
   binary, with bounded-exhaustive search in place of KLEE).

   Modes:
   - default: bounded-exhaustive exploration of the FM product machine
     (certified ring x UMem x breaker x faults x shard, DESIGN.md §11).
     --depth bounds the transition sequences (default 5), --queues sets
     the shards (default 1), --max-states the state budget;
     --min-states N additionally fails a run that visits fewer than N
     distinct states (the CI coverage-regression gate), and --mutant M
     runs against a known-bad driver mutation that must be caught;
   - --campaign: the full adversarial campaign — differential oracle
     runs (certified vs naive vs golden model), end-to-end single /
     pairwise / soup attack schedules on both datapaths, and a
     shrinker demonstration.  --budget bounds the total end-to-end
     workload steps (CI smoke uses --budget 2000);
   - --replay '<kind>:key=value:…': replay one campaign or soak outcome
     from its copy-pasteable repro token (e.g.
     'io_uring:seed=19:budget=32:faults=@0.25=short-io:q=2:zc=1' or
     'soak:seed=42:steps=2000:q=2'; the key table is in docs/cli.md);
   - --faults '<plan>' (with --campaign): additionally run each
     datapath under that host-fault plan alone and composed with an
     attack soup — the Faults.plan syntax of docs/cli.md
     (e.g. '@0.05=transient-errno;200=monitor-crash');
   - --soak: the overload-control chaos soak (DESIGN.md §15) — flash
     crowd x rolling shard faults x malice soup on a multi-queue
     machine with Config.overload, gated on zero unaccounted
     datagrams, zero control sheds, the p99 SLO and goodput recovery.
     --soak-steps / --queues / --seed / --slo-p99 parameterize it
     (CI smoke uses --soak-steps 12000);
   - --wire (with --campaign or --soak): compose the canonical
     lossy-wire plan (5% drop/reorder/dup, 1% truncation — DESIGN.md
     §16) onto the run; the repro tokens gain "wire=1".

   Every printed token must parse back to the run's own parameters;
   a token that does not fails the run. *)

module C = Tm.Campaign

let total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

let verdict o = if C.failed o then "FAIL" else "ok"

(* A run's repro token, checked to parse back to the run's own
   parameters — one that does not would replay a different run. *)
let checked_token spec =
  let token = C.repro spec in
  if C.parse_repro token = Ok spec then Ok token
  else Error (Printf.sprintf "repro token %S does not parse back to its run" token)

let campaign ~budget ~faults_plan ~queues ~wire =
  Format.printf
    "RAKIS Testing Module: adversarial campaign (budget %d, queues %d)@.@."
    budget queues;
  let failures = ref 0 in
  (* Differential oracle: >= 10k scheduled steps per datapath shape. *)
  let oracle_steps = max 10_000 budget in
  List.iter
    (fun shape ->
      let r = Tm.Oracle.run ~shape ~seed:11L ~steps:oracle_steps () in
      Format.printf "%a@.@." Tm.Oracle.pp_report r;
      if not (Tm.Oracle.passed r) then incr failures)
    [ Tm.Oracle.Xsk_shape; Tm.Oracle.Iouring_shape ];
  (* End-to-end schedules.  The per-run budget splits the global budget
     over the singles (11 + 9 + the 2 zero-copy notif forgeries), a
     pairwise sample and three soups. *)
  let datapaths = [ C.Xsk; C.Iouring ] in
  let copy_singles = C.applicable C.Iouring in
  let singles =
    List.concat_map
      (fun dp -> List.map (fun a -> (dp, false, a)) (C.applicable dp))
      datapaths
    @ List.filter_map
        (fun a ->
          if List.mem a copy_singles then None else Some (C.Iouring, true, a))
        (C.applicable ~zerocopy:true C.Iouring)
  in
  let runs =
    List.length singles + 11
    + (if faults_plan = [] then 0 else 4)
    + if wire then 2 else 0
  in
  let per_run = max 16 (budget / runs) in
  let base = { C.default with budget = per_run; queues } in
  let summarize o =
    match checked_token (C.Run o.C.params) with
    | Error e ->
        incr failures;
        Format.printf "%s@." e
    | Ok token ->
        if C.failed o then begin
          incr failures;
          Format.printf "%a@.repro: %s@.@." C.pp_outcome o token
        end
  in
  let shape_name dp zerocopy =
    C.datapath_name dp ^ if zerocopy then "+zc" else ""
  in
  List.iter
    (fun (datapath, zerocopy, attack) ->
      let schedule = [ C.At { step = per_run / 4; attack } ] in
      let o = C.run { base with datapath; seed = 21L; zerocopy; schedule } in
      Format.printf "single %-9s %-20s ok=%d refused=%d lost=%d fired=%d %s@."
        (shape_name datapath zerocopy)
        (Hostos.Malice.attack_name attack)
        o.C.ok o.C.refused o.C.lost (total o.C.fired) (verdict o);
      summarize o)
    singles;
  (* Pairwise sample: index and descriptor attacks composed. *)
  List.iter
    (fun datapath ->
      List.iter
        (fun (a, b) ->
          let schedule =
            [
              C.At { step = per_run / 4; attack = a };
              C.At { step = per_run / 2; attack = b };
            ]
          in
          summarize (C.run { base with datapath; seed = 31L; schedule }))
        (C.pairs Hostos.Malice.[ Prod_overshoot; Cons_regress; Oversize_len ]))
    datapaths;
  (* Soups — per datapath, plus one over the zero-copy io_uring
     datapath so the notif forgeries land mixed in with everything
     else. *)
  List.iter
    (fun (datapath, zerocopy) ->
      let schedule = C.soup ~datapath ~zerocopy ~seed:41L ~budget:per_run () in
      let o = C.run { base with datapath; seed = 41L; zerocopy; schedule } in
      Format.printf
        "soup   %-9s entries=%d ok=%d refused=%d lost=%d fired=%d %s@."
        (shape_name datapath zerocopy)
        (List.length schedule) o.C.ok o.C.refused o.C.lost (total o.C.fired)
        (verdict o);
      summarize o)
    (List.map (fun dp -> (dp, false)) datapaths @ [ (C.Iouring, true) ]);
  (* Canonical breaker-failover arc (DESIGN.md §9): a probability-1
     fault burst opens the primitive's breaker, traffic rides the
     exit-based slow path, and the fault-free tail lets it probe and
     fail back.  Asserted, not just reported: a run where the breaker
     never engaged means the degraded-mode machinery is wired out. *)
  List.iter
    (fun datapath ->
      let faults = C.failover_plan ~datapath ~budget:per_run in
      let o = C.run { base with datapath; seed = 81L; faults } in
      let tot = o.C.totals in
      Format.printf
        "failover %-9s opens=%d failovers=%d closes=%d slow=%d \
         watchdog=%d scans=%d %s@."
        (C.datapath_name datapath) tot.breaker_opens tot.breaker_failovers
        tot.breaker_closes tot.slow_calls o.C.watchdog_restarts
        o.C.degraded_scans (verdict o);
      if tot.breaker_opens = 0 then begin
        incr failures;
        Format.printf "failover %s: breaker never opened@."
          (C.datapath_name datapath)
      end;
      summarize o)
    datapaths;
  (* Host-fault schedules: the plan alone (pure availability weather),
     then composed with an attack soup — a lying AND failing host. *)
  if faults_plan <> [] then
    List.iter
      (fun datapath ->
        let faults = faults_plan in
        let o = C.run { base with datapath; seed = 61L; faults } in
        Format.printf "faults %-9s injected=%d ok=%d refused=%d lost=%d %s@."
          (C.datapath_name datapath) (total o.C.injected) o.C.ok o.C.refused
          o.C.lost (verdict o);
        summarize o;
        let schedule = C.soup ~datapath ~seed:71L ~budget:per_run () in
        let o = C.run { base with datapath; seed = 71L; faults; schedule } in
        Format.printf
          "faults+soup %-9s entries=%d injected=%d ok=%d refused=%d \
           lost=%d fired=%d %s@."
          (C.datapath_name datapath) (List.length schedule)
          (total o.C.injected) o.C.ok o.C.refused o.C.lost (total o.C.fired)
          (verdict o);
        summarize o)
      datapaths;
  (* Hostile-wire weather (DESIGN.md §16): the canonical lossy plan —
     5% drop/reorder/dup, 1% truncation — on the XSK datapath (the
     wire faults live on the NIC link, which only XSK traffic rides),
     alone and composed with an attack soup.  Loss is availability
     weather: the run must stay violation-free and the injector must
     have actually fired. *)
  if wire then begin
    let check_wire label o =
      Format.printf "%s %-9s ok=%d refused=%d lost=%d injected=%d %s@." label
        "xsk" o.C.ok o.C.refused o.C.lost (total o.C.injected) (verdict o);
      if total o.C.injected = 0 then begin
        incr failures;
        Format.printf "%s: the lossy-wire plan never injected a fault@." label
      end;
      summarize o
    in
    check_wire "wire  " (C.run { base with seed = 101L; wire = true });
    let schedule = C.soup ~datapath:C.Xsk ~seed:103L ~budget:per_run () in
    check_wire "wire+soup"
      (C.run { base with seed = 103L; wire = true; schedule })
  end;
  (* Shard containment (DESIGN.md §10): a persistent wakeup-drop pinned
     to shard 1 may only ever open shard 1's breaker — breaker activity
     on any other shard means the blast radius leaked across shards. *)
  if queues > 1 then begin
    let faults =
      [
        {
          Hostos.Faults.fault = Hostos.Faults.Drop_wakeup;
          when_ = Hostos.Faults.Persistent;
          shard = Some 1;
        };
      ]
    in
    let o = C.run { base with seed = 91L; faults } in
    let shard_opens = o.C.totals.shard_opens in
    let leaked =
      List.exists (( < ) 0) (List.filteri (fun k _ -> k <> 1) shard_opens)
    in
    Format.printf "containment xsk shard-1 fault: opens=[%s] lost=%d %s@."
      (String.concat ";" (List.map string_of_int shard_opens))
      o.C.lost
      (if leaked || C.failed o then "FAIL" else "ok");
    if leaked then begin
      incr failures;
      Format.printf "containment: shard-1 fault opened another shard's \
                     breaker@."
    end;
    summarize o
  end;
  (* Shrinker demonstration on a naive-ring failure. *)
  let events = Tm.Oracle.gen_soup ~seed:51L ~steps:60 in
  if Tm.Oracle.naive_consumer_fails events then begin
    let r = Tm.Shrink.minimize ~fails:Tm.Oracle.naive_consumer_fails events in
    Format.printf "@.shrinker: naive failure %d -> %d steps (%d replays): "
      r.Tm.Shrink.original
      (List.length r.Tm.Shrink.trace)
      r.Tm.Shrink.tests;
    List.iter (fun e -> Format.printf "%a;" Tm.Oracle.pp_event e) r.Tm.Shrink.trace;
    Format.printf "@."
  end
  else begin
    Format.printf "@.shrinker: seed 51 soup did not fail the naive ring@.";
    incr failures
  end;
  if !failures > 0 then begin
    Format.printf "@.campaign FAILED (%d failures)@." !failures;
    exit 1
  end
  else Format.printf "@.campaign passed@."

(* Soak output: the outcome, then the verdict — also a token that does
   not parse back to its own parameters fails the soak. *)
let soak_verdict o =
  Format.printf "%a@." C.pp_soak_outcome o;
  match checked_token (C.Soak o.C.sk_params) with
  | Error e ->
      Format.printf "@.%s@.soak FAILED@." e;
      exit 1
  | Ok _ when C.soak_failed o ->
      Format.printf "@.soak FAILED@.";
      exit 1
  | Ok _ -> Format.printf "@.soak passed@."

let soak (p : C.soak_params) =
  Format.printf
    "RAKIS Testing Module: overload chaos soak (steps %d, queues %d%s)@.@."
    p.sk_steps p.sk_queues
    (if p.sk_wire then ", lossy wire" else "");
  soak_verdict (C.soak p)

let replay token =
  match C.parse_repro token with
  | Error e ->
      Format.eprintf "bad repro token: %s@." e;
      exit 2
  | Ok (C.Soak p) -> soak_verdict (C.soak p)
  | Ok (C.Run p) ->
      let o = C.run p in
      Format.printf "%a@." C.pp_outcome o;
      if C.failed o then exit 1

let explore ~depth ~queues ~min_states ~max_states ~mutant =
  let mutant =
    match mutant with
    | "" -> None
    | s -> (
        match Tm.Explore.mutant_of_string s with
        | Some m -> Some m
        | None ->
            Format.eprintf "unknown --mutant %S (one of: %s)@." s
              (String.concat ", "
                 (List.map Tm.Explore.mutant_name Tm.Explore.all_mutants));
            exit 2)
  in
  (* Mutant runs weaken the breaker threshold to 1 so the witness path
     (trip, cool down, probe) fits in a shallow depth bound. *)
  let config =
    {
      Tm.Explore.default_config with
      shards = queues;
      mutant;
      threshold = (if mutant = None then Tm.Explore.default_config.threshold else 1);
    }
  in
  Format.printf
    "RAKIS Testing Module: exhaustive product-machine exploration@.@.";
  let t0 = Sys.time () in
  let r = Tm.Explore.explore ~config ~depth ~max_states () in
  let dt = Sys.time () -. t0 in
  Format.printf "%a@.elapsed:          %.1fs@." Tm.Explore.pp_report r dt;
  match mutant with
  | Some m ->
      (* a mutant run is expected to be CAUGHT *)
      if r.Tm.Explore.violations = [] then begin
        Format.printf "@.mutant %s NOT caught — the explorer's net has a hole@."
          (Tm.Explore.mutant_name m);
        exit 1
      end
      else Format.printf "@.mutant %s caught as expected@." (Tm.Explore.mutant_name m)
  | None ->
      if not (Tm.Explore.passed r) then begin
        Format.printf "@.exploration FAILED@.";
        exit 1
      end;
      if r.Tm.Explore.states < min_states then begin
        Format.printf
          "@.coverage regression: %d states < required %d (was the state \
           space or the transition set narrowed?)@."
          r.Tm.Explore.states min_states;
        exit 1
      end;
      Format.printf "@.exploration passed@."

let () =
  let depth = ref 5
  and budget = ref 2000
  and queues = ref 1
  and mode = ref `Explore
  and faults_spec = ref ""
  and min_states = ref 0
  and max_states = ref 250_000
  and mutant = ref ""
  and token = ref ""
  and soak_steps = ref C.default_soak.sk_steps
  and seed = ref C.default_soak.sk_seed
  and slo_p99 = ref C.default_soak.sk_slo_p99
  and wire = ref false in
  let spec =
    [
      ( "--depth",
        Arg.Set_int depth,
        "transition-sequence bound for the exploration (default 5)" );
      ( "--campaign",
        Arg.Unit (fun () -> mode := `Campaign),
        "run the adversarial campaign instead of the exploration" );
      ( "--budget",
        Arg.Set_int budget,
        "campaign end-to-end step budget (default 2000)" );
      ( "--queues",
        Arg.Set_int queues,
        "datapath shards for the campaign workloads (default 1; > 1 \
         additionally runs the shard-containment check), for --soak (at \
         least 2) and for the exploration" );
      ( "--faults",
        Arg.Set_string faults_spec,
        "host-fault plan for the campaign (';'-separated, e.g. \
         '@0.05=transient-errno;200=monitor-crash')" );
      ( "--replay",
        Arg.String
          (fun s ->
            mode := `Replay;
            token := s),
        "replay one campaign or soak repro token" );
      ( "--min-states",
        Arg.Set_int min_states,
        "fail the exploration below this many distinct states — the CI \
         coverage-regression gate (default 0: no floor)" );
      ( "--max-states",
        Arg.Set_int max_states,
        "state budget for the exploration (default 250000)" );
      ( "--soak",
        Arg.Unit (fun () -> mode := `Soak),
        "run the overload-control chaos soak (flash crowd x rolling \
         shard faults x malice soup with Config.overload); gates: zero \
         unaccounted datagrams, zero control sheds, p99 SLO, goodput \
         recovery" );
      ( "--soak-steps",
        Arg.Set_int soak_steps,
        "datagram steps for --soak (default 100000)" );
      ( "--seed",
        Arg.String (fun s -> seed := Int64.of_string s),
        "seed for --soak (default 0x50AD5EED)" );
      ( "--slo-p99",
        Arg.String (fun s -> slo_p99 := Int64.of_string s),
        "p99 SLO for --soak in cycles (default Config.slo_p99, \
         1 ms at 2.4 GHz)" );
      ( "--wire",
        Arg.Set wire,
        "compose the canonical lossy-wire plan (5% drop/reorder/dup, 1% \
         trunc) onto --campaign (extra XSK wire-weather runs) or --soak \
         (the whole soak rides the hostile wire; token gains 'wire=1')" );
      ( "--mutant",
        Arg.Set_string mutant,
        "run the exploration against a known-bad driver mutation and \
         require it to be caught (probe-off-by-one | probe-slot-leak | \
         skip-reclaim | zc-release-early)" );
    ]
  in
  Arg.parse spec
    (fun _ -> ())
    "tm_verify [--depth N] [--queues N] [--min-states N] [--max-states N] \
     [--mutant M]\n\
    \       tm_verify --campaign [--budget N] [--queues N] [--faults PLAN] [--wire]\n\
    \       tm_verify --soak [--soak-steps N] [--queues N] [--seed N] [--slo-p99 \
     CYCLES] [--wire]\n\
    \       tm_verify --replay TOKEN";
  match !mode with
  | `Campaign -> (
      match Hostos.Faults.plan_of_string !faults_spec with
      | Error e ->
          Format.eprintf "bad --faults plan: %s@." e;
          exit 2
      | Ok faults_plan ->
          campaign ~budget:!budget ~faults_plan ~queues:!queues ~wire:!wire)
  | `Replay -> replay !token
  | `Soak ->
      soak
        {
          sk_seed = !seed;
          sk_steps = !soak_steps;
          sk_queues = max 2 !queues;
          sk_slo_p99 = !slo_p99;
          sk_wire = !wire;
        }
  | `Explore ->
      explore ~depth:!depth ~queues:!queues ~min_states:!min_states
        ~max_states:!max_states ~mutant:!mutant
