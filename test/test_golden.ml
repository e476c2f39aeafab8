(* Golden expect-traces (DESIGN.md §11).

   Each case renders a fully deterministic artifact — a campaign
   outcome, a breaker timeline, a batch of repro tokens, an explorer
   report — and compares it byte-for-byte against a checked-in file
   under [test/golden/].  A mismatch prints both versions; set
   [RAKIS_UPDATE_GOLDEN=1] (and run from the repo root, e.g.
   [RAKIS_UPDATE_GOLDEN=1 dune exec test/test_main.exe -- test golden])
   to regenerate the files after an intentional rendering change.

   No ppx_expect: the harness is ~40 lines of plain OCaml, which keeps
   the golden workflow dependency-free. *)

module C = Tm.Campaign
module F = Hostos.Faults

(* dune runtest sandboxes us in test/; dune exec runs from the root *)
let golden_dir =
  if Sys.file_exists "test/golden" then "test/golden"
  else if Sys.file_exists "golden" then "golden"
  else "test/golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let update_mode = Sys.getenv_opt "RAKIS_UPDATE_GOLDEN" <> None

let check_golden name actual =
  let path = Filename.concat golden_dir (name ^ ".txt") in
  if update_mode then begin
    write_file path actual;
    Printf.printf "golden: wrote %s (%d bytes)\n%!" path (String.length actual)
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf
      "golden file %s missing — generate it with RAKIS_UPDATE_GOLDEN=1"
      path
  else
    let expected = read_file path in
    if expected <> actual then
      Alcotest.failf
        "golden %s mismatch\n--- expected (%s) ---\n%s\n--- actual ---\n%s\n\
         (rerun with RAKIS_UPDATE_GOLDEN=1 if the change is intentional)"
        name path expected actual

(* {1 Campaign outcomes} *)

let test_campaign_outcomes () =
  let clean = C.run { C.default with seed = 7L; budget = 32 } in
  let attacked =
    C.run
      {
        C.default with
        seed = 7L;
        budget = 32;
        schedule =
          [
            C.At { step = 4; attack = Hostos.Malice.Prod_overshoot };
            C.During
              {
                first = 8;
                last = 16;
                probability = 1.0;
                attack = Hostos.Malice.Misaligned_offset;
              };
          ];
      }
  in
  let faulted =
    C.run
      {
        C.default with
        datapath = C.Iouring;
        seed = 11L;
        budget = 32;
        faults =
          [
            {
              F.fault = F.Transient_errno;
              when_ = F.Burst { first_step = 4; last_step = 16; probability = 1.0 };
              shard = None;
            };
          ];
      }
  in
  let sharded =
    C.run
      {
        C.default with
        seed = 5L;
        budget = 32;
        queues = 2;
        faults =
          [ { F.fault = F.Drop_wakeup; when_ = F.Persistent; shard = Some 1 } ];
      }
  in
  check_golden "campaign_outcomes"
    (Format.asprintf
       "@[<v>== clean xsk ==@,%a@,== attacked xsk ==@,%a@,== faulted \
        io_uring ==@,%a@,== sharded xsk, fault pinned to shard 1 ==@,%a@]@."
       C.pp_outcome clean C.pp_outcome attacked C.pp_outcome faulted
       C.pp_outcome sharded)

(* {1 Breaker timeline} *)

let test_breaker_timeline () =
  let clock = ref 0L in
  let b =
    Rakis.Health.create ~name:"golden" ~clock:(fun () -> !clock) ~threshold:2
      ~cooldown:50L ~probes_needed:2 ()
  in
  let buf = Buffer.create 512 in
  let line op =
    Buffer.add_string buf
      (Format.asprintf "%4Ld  %-12s %a  opens=%d closes=%d\n" !clock op
         Rakis.Health.pp_observation (Rakis.Health.observe b)
         (Rakis.Health.opens b) (Rakis.Health.closes b))
  in
  let allow op =
    let d = Rakis.Health.allow b in
    line
      (Printf.sprintf "%s>%s" op
         (match d with
         | Rakis.Health.Fast -> "fast"
         | Rakis.Health.Probe -> "probe"
         | Rakis.Health.Slow -> "slow"))
  in
  let tick n =
    clock := Int64.add !clock n;
    line "tick"
  in
  line "boot";
  allow "allow";
  Rakis.Health.record_failure b;
  line "failure";
  Rakis.Health.record_failure b;
  line "failure";
  (* open: everything routes slow until the cooldown elapses *)
  allow "allow";
  tick 60L;
  (* half-open: first allow wins the probe slot, the second is shed *)
  allow "allow";
  allow "allow";
  (* the probe is declined (a blocking recv): slot released, still probing *)
  Rakis.Health.cancel_probe b;
  line "cancel";
  allow "allow";
  Rakis.Health.record_failure b;
  line "failure";
  (* reopened by the failed probe; cool down again and close via 2 probes *)
  tick 60L;
  allow "allow";
  Rakis.Health.record_success b;
  line "success";
  allow "allow";
  Rakis.Health.record_success b;
  line "success";
  allow "allow";
  check_golden "breaker_timeline" (Buffer.contents buf)

(* {1 Repro tokens} *)

let test_repro_tokens () =
  let run p = C.Run p in
  let cases =
    [
      ( "fault-free single queue",
        run
          {
            C.default with
            seed = 42L;
            budget = 64;
            schedule = [ C.At { step = 3; attack = Hostos.Malice.Cons_regress } ];
          } );
      ( "fault plan",
        run
          {
            C.default with
            datapath = C.Iouring;
            seed = 9L;
            budget = 128;
            schedule =
              [
                C.During
                  {
                    first = 2;
                    last = 30;
                    probability = 0.25;
                    attack = Hostos.Malice.Cqe_bogus_res;
                  };
              ];
            faults =
              [
                { F.fault = F.Short_io; when_ = F.Probability 0.5; shard = None };
                { F.fault = F.Monitor_crash; when_ = F.At_step 11; shard = None };
              ];
          } );
      ( "multi-queue, empty plan",
        run { C.default with seed = 3L; budget = 32; queues = 4 } );
      ( "multi-queue, pinned persistent fault",
        run
          {
            C.default with
            seed = 5L;
            budget = 32;
            faults =
              [ { F.fault = F.Drop_wakeup; when_ = F.Persistent; shard = Some 1 } ];
            queues = 2;
          } );
      ( "once-trigger with probability",
        run
          {
            C.default with
            seed = 8L;
            budget = 16;
            faults =
              [ { F.fault = F.Nic_stall; when_ = F.Once 0.75; shard = None } ];
          } );
      ( "zero-copy, fault-free single queue",
        run
          {
            C.default with
            datapath = C.Iouring;
            seed = 23L;
            budget = 48;
            schedule =
              [ C.At { step = 8; attack = Hostos.Malice.Forged_early_notif } ];
            zerocopy = true;
          } );
      ( "zero-copy, multi-queue with fault plan",
        run
          {
            C.default with
            datapath = C.Iouring;
            seed = 31L;
            budget = 32;
            faults =
              [ { F.fault = F.Short_io; when_ = F.Probability 0.25; shard = None } ];
            queues = 2;
            zerocopy = true;
          } );
      ( "overload control, fault-free single queue",
        run
          {
            C.default with
            seed = 13L;
            budget = 24;
            schedule = [ C.At { step = 5; attack = Hostos.Malice.Prod_overshoot } ];
            overload = true;
          } );
      ( "overload + zero-copy, multi-queue with fault plan",
        run
          {
            C.default with
            datapath = C.Iouring;
            seed = 17L;
            budget = 32;
            faults =
              [ { F.fault = F.Drop_wakeup; when_ = F.Persistent; shard = Some 0 } ];
            queues = 2;
            zerocopy = true;
            overload = true;
          } );
      ( "lossy wire, fault-free single queue",
        run
          {
            C.default with
            seed = 101L;
            budget = 28;
            schedule = [ C.At { step = 4; attack = Hostos.Malice.Replay } ];
            wire = true;
          } );
      ( "overload + zero-copy + lossy wire, multi-queue",
        run
          {
            C.default with
            datapath = C.Iouring;
            seed = 19L;
            budget = 32;
            faults =
              [ { F.fault = F.Short_io; when_ = F.Probability 0.25; shard = None } ];
            queues = 2;
            zerocopy = true;
            overload = true;
            wire = true;
          } );
      ( "soak, defaults",
        C.Soak { C.default_soak with sk_seed = 42L; sk_steps = 2000 } );
      ( "soak, custom SLO + lossy wire",
        C.Soak
          {
            C.default_soak with
            sk_steps = 12000;
            sk_queues = 4;
            sk_slo_p99 = 2_000_000L;
            sk_wire = true;
          } );
    ]
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (label, spec) ->
      let token = C.repro spec in
      (* idempotence is part of the contract the golden pins down *)
      (match C.parse_repro token with
      | Error e -> Alcotest.failf "token %S failed to parse back: %s" token e
      | Ok spec' ->
          if spec' <> spec then
            Alcotest.failf "token %S parses back to a different run" token);
      Buffer.add_string buf (Printf.sprintf "%s\n  %s\n" label token))
    cases;
  check_golden "repro_tokens" (Buffer.contents buf)

(* {1 Zero-copy dropped-notif failure}

   The one attack the campaign never draws from the soup because it
   fails deterministically: a withheld notif strands its frame in
   [Registered] forever, so the run ends with [zc_leaks > 0] and
   {!C.failed} trips even though no integrity violation fired
   (docs/zerocopy.md, "dropped notif").  The golden pins the whole
   failure artifact — outcome, shrunk minimal schedule, and the
   [zc=1] repro token. *)

let test_zc_dropped_notif_failure () =
  let schedule =
    [
      (* redundant decoy the shrinker must discard *)
      C.At { step = 2; attack = Hostos.Malice.Prod_overshoot };
      C.At { step = 7; attack = Hostos.Malice.Dropped_notif };
    ]
  in
  let o =
    C.run
      {
        C.default with
        datapath = C.Iouring;
        seed = 13L;
        budget = 32;
        zerocopy = true;
        schedule;
      }
  in
  Alcotest.(check bool) "dropped notif fails the campaign" true (C.failed o);
  Alcotest.(check bool) "leak footprint, not integrity" true (o.C.totals.zc_leaks > 0);
  let s = C.shrink_failure o in
  let minimal = C.run s.C.shrunk in
  let token = C.repro (C.Run s.C.shrunk) in
  Alcotest.(check bool)
    (Printf.sprintf "token %S carries zc=1" token)
    true
    (Filename.check_suffix token ":zc=1");
  check_golden "zc_dropped_notif"
    (Format.asprintf
       "@[<v>== zero-copy io_uring campaign, dropped notif ==@,\
        %a@,\
        == shrunk: %d -> %d schedule entries in %d replays ==@,\
        %a@,\
        repro: %s@]@."
       C.pp_outcome o s.C.schedule_original
       (List.length s.C.shrunk.schedule)
       s.C.shrink_tests C.pp_outcome minimal token)

(* {1 Soak outcome}

   A small overload chaos soak (flash crowd × rolling fault plan ×
   malice soup, DESIGN.md §15) is deterministic in (seed, steps,
   queues); the golden pins the entire rendered outcome — the
   accounting identity, the latency summary, the goodput windows and
   the ["soak:seed=<seed>:steps=<steps>:q=<n>"] repro token — so any
   drift in the soak driver, the overload controller or the renderer
   shows up as a byte diff.  The token on the golden's first line is
   then replayed and must reproduce the whole file byte for byte. *)

let test_soak_outcome () =
  let o = C.soak { C.default_soak with sk_seed = 42L; sk_steps = 2000 } in
  Alcotest.(check bool) "small soak passes its gates" false (C.soak_failed o);
  check_golden "soak_outcome" (Format.asprintf "%a@." C.pp_soak_outcome o);
  let golden = read_file (Filename.concat golden_dir "soak_outcome.txt") in
  match String.split_on_char ' ' golden with
  | "soak" :: token :: _ -> (
      match C.parse_repro token with
      | Ok (C.Soak p) ->
          Alcotest.(check string) "replayed golden token" golden
            (Format.asprintf "%a@." C.pp_soak_outcome (C.soak p))
      | Ok (C.Run _) -> Alcotest.failf "%S parsed as a campaign token" token
      | Error e -> Alcotest.failf "golden token %S: %s" token e)
  | _ -> Alcotest.fail "soak golden does not start with its token"

(* {1 Explorer report} *)

let test_explore_report () =
  let report =
    Tm.Explore.explore
      ~config:{ Tm.Explore.default_config with shards = 1 }
      ~depth:4 ()
  in
  check_golden "explore_report"
    (Format.asprintf "%a@." Tm.Explore.pp_report report)

let suite =
  [
    Alcotest.test_case "golden: campaign outcomes" `Quick
      test_campaign_outcomes;
    Alcotest.test_case "golden: breaker timeline" `Quick test_breaker_timeline;
    Alcotest.test_case "golden: repro tokens" `Quick test_repro_tokens;
    Alcotest.test_case "golden: zero-copy dropped-notif failure" `Quick
      test_zc_dropped_notif_failure;
    Alcotest.test_case "golden: soak outcome" `Quick test_soak_outcome;
    Alcotest.test_case "golden: explorer report" `Quick test_explore_report;
  ]
