(* Every case runs under a wall-clock watchdog, so a defect that makes a
   case loop forever fails that case by name instead of hanging the
   run.  SIGALRM's handler runs at the next poll point (OCaml 5 polls in
   loops as well as at allocations) and raises out of the case; a case
   that swallows the exception and keeps going gets [grace_s] more
   seconds before the process exits non-zero.  The bound sits far above
   the slowest case (about 2.5 s) so a slow machine cannot trip it. *)

let bound_s = 60.

let grace_s = 10.

(* Alcotest sends a case's output to a log file; the exit notice goes to
   the terminal the run started on. *)
let console = Unix.out_channel_of_descr (Unix.dup Unix.stderr)

let set_timer value interval =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_value = value; it_interval = interval })

let with_watchdog name f x =
  let fired = ref false in
  let on_alarm _ =
    if not !fired then begin
      fired := true;
      Alcotest.failf "%s: still running after the %.0f s watchdog" name
        bound_s
    end
    else begin
      Printf.fprintf console "%s: ignored the %.0f s watchdog; exiting\n%!"
        name bound_s;
      exit 124
    end
  in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle on_alarm) in
  set_timer bound_s grace_s;
  Fun.protect
    ~finally:(fun () ->
      set_timer 0. 0.;
      Sys.set_signal Sys.sigalrm previous)
    (fun () -> f x)

let guarded (suite, cases) =
  ( suite,
    List.map
      (fun (name, speed, f) ->
        (name, speed, with_watchdog (suite ^ " " ^ name) f))
      cases )

let () =
  Alcotest.run "rakis-repro"
    (List.map guarded
       [
         ("sim", Test_sim.suite);
         ("mem", Test_mem.suite);
         ("packet", Test_packet.suite);
         ("rings", Test_rings.suite);
         ("sgx", Test_sgx.suite);
         ("abi", Test_abi.suite);
         ("hostos", Test_hostos.suite);
         ("netstack", Test_netstack.suite);
         ("rakis", Test_rakis.suite);
         ("libos", Test_libos.suite);
         ("apps", Test_apps.suite);
         ("tm", Test_tm.suite);
         ("explore", Test_explore.suite);
         ("stm", Test_stm.suite);
         ("golden", Test_golden.suite);
         ("campaign", Test_campaign.suite);
         ("faults", Test_faults.suite);
         ("health", Test_health.suite);
         ("monitor", Test_monitor.suite);
         ("stress", Test_stress.suite);
         ("misc", Test_misc.suite);
         ("obs", Test_obs.suite);
         ("shard", Test_shard.suite);
         ("overload", Test_overload.suite);
       ])
