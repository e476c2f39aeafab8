(* Exhaustive bounded exploration of the full FM product machine
   (DESIGN.md §11).

   This module explores the {e product} of everything the FM composes
   per shard: certified ring indices x the UMem ownership partition
   (free / out-Rx / out-Tx / limbo / registered) x the circuit breaker
   (Closed / Open / Half_open, probe in flight, cooldown) x a fault
   trigger x the shard id — under an interleaved adversary that may, at every step, deliver frames honestly, deliver
   garbage descriptors, smash the shared producer index, forge or
   withhold zero-copy notifs, arm a persistent fault, or stall.

   The search is a breadth-first enumeration of transition sequences
   over a deliberately tiny configuration (2 shards, 2-entry rings,
   3 UMem frames, breaker threshold 2) with state hashing: states are
   deduplicated by a structural abstraction (trusted-index window,
   per-slot descriptor classes, the full frame partition and free-list
   order, breaker observation, fault arming) that captures everything
   the enabled-transition relation and the invariants can see.
   Monotone counters (opens, closes, reject totals) are capped in the
   abstraction so the reachable space is finite.

   Because the machines are mutable, a state is reconstructed by
   replaying its transition path on a fresh machine; determinism makes
   the replay exact.  After every transition the explorer asserts:

   - V1  UMem conservation: free + outRx + outTx + limbo + registered
         = frames;
   - V2  certified ring invariant (paper eq. 1): 0 <= Pt - Ct <= St;
   - V3  ring conformance with the pure {!Stm_model.Ring};
   - V4  UMem conformance with {!Stm_model.Umem} (partition + rejects);
   - V5  breaker conformance with {!Stm_model.Breaker}, edge legality
         (breaker monotonicity) and exact opens/closes/on_open counts;
   - V6  descriptor accept/reject verdicts match the model's;
   - V7  shard containment: a transition on shard [k] leaves every
         other shard's observation untouched;
   - V8  notif-anchored zero-copy ownership: exactly one pending notif
         per Registered frame, honest notifs accepted, forged or
         duplicated notifs refused, and release verdicts match the
         model's.

   The [mutant] parameter re-introduces four historical bug shapes
   (probe double-counting, probe slot leak, skipped reclaim
   validation, completion-anchored zero-copy release) in the
   {e driver}'s use of the real modules; the test suite proves each one
   is caught, which is the evidence that the explorer's net actually
   catches the fish it claims to. *)

type mutant =
  | Probe_off_by_one  (** a probe success is counted twice *)
  | Probe_slot_leak  (** a declined probe never releases its slot *)
  | Skip_reclaim  (** consumed descriptors bypass UMem validation *)
  | Zc_release_early
      (** a zero-copy frame is freed on completion instead of notif *)

let mutant_name = function
  | Probe_off_by_one -> "probe-off-by-one"
  | Probe_slot_leak -> "probe-slot-leak"
  | Skip_reclaim -> "skip-reclaim"
  | Zc_release_early -> "zc-release-early"

let mutant_of_string = function
  | "probe-off-by-one" -> Some Probe_off_by_one
  | "probe-slot-leak" -> Some Probe_slot_leak
  | "skip-reclaim" -> Some Skip_reclaim
  | "zc-release-early" -> Some Zc_release_early
  | _ -> None

let all_mutants =
  [ Probe_off_by_one; Probe_slot_leak; Skip_reclaim; Zc_release_early ]

type config = {
  shards : int;
  ring_size : int;
  frames : int;  (** UMem frames per shard *)
  frame_size : int;
  threshold : int;
  probes_needed : int;
  cooldown : int64;
  mutant : mutant option;
}

(* {1 The concrete per-shard machine} *)

type shard = {
  layout : Rings.Layout.t;
  ring : Rings.Certified.t;  (* consumer role: models xRX *)
  umem : Rakis.Umem.t;
  breaker : Rakis.Health.t;
  clock : int64 ref;
  on_open_fires : int ref;
  mutable fault_armed : bool;
  mutable limbo : int option;  (* allocated, not yet committed *)
  mutable host_pending : int list;  (* committed Rx frames the host holds *)
  mutable tx_out : int list;  (* committed Tx frames awaiting completion *)
  mutable zc_out : int list;  (* Registered frames awaiting their notif *)
  mutable shadow_prod : int;  (* the honest host's true producer index *)
  (* pure mirrors, advanced in lockstep *)
  mutable m_ring : Stm_model.Ring.t;
  mutable m_umem : Stm_model.Umem.t;
  mutable m_breaker : Stm_model.Breaker.t;
}

type machine = { cfg : config; shards : shard array }

let make_shard cfg k =
  let region =
    Mem.Region.create ~kind:Untrusted
      ~name:(Printf.sprintf "explore.%d" k)
      ~size:(Rings.Layout.footprint ~entry_size:8 ~size:cfg.ring_size + 64)
  in
  let alloc = Mem.Alloc.create region () in
  let layout = Rings.Layout.alloc alloc ~entry_size:8 ~size:cfg.ring_size in
  let clock = ref 0L in
  let breaker =
    Rakis.Health.create
      ~name:(Printf.sprintf "explore.%d" k)
      ~clock:(fun () -> !clock)
      ~threshold:cfg.threshold ~cooldown:cfg.cooldown
      ~probes_needed:cfg.probes_needed ()
  in
  let on_open_fires = ref 0 in
  Rakis.Health.set_on_open breaker (fun () -> incr on_open_fires);
  {
    layout;
    ring = Rings.Certified.create layout ~role:Rings.Certified.Consumer ();
    umem =
      Rakis.Umem.create
        ~size:(cfg.frames * cfg.frame_size)
        ~frame_size:cfg.frame_size ();
    breaker;
    clock;
    on_open_fires;
    fault_armed = false;
    limbo = None;
    host_pending = [];
    tx_out = [];
    zc_out = [];
    shadow_prod = 0;
    m_ring = Stm_model.Ring.create ~size:cfg.ring_size;
    m_umem = Stm_model.Umem.create ~frames:cfg.frames ~frame_size:cfg.frame_size;
    m_breaker =
      Stm_model.Breaker.create ~threshold:cfg.threshold
        ~probes_needed:cfg.probes_needed ~cooldown:cfg.cooldown;
  }

let boot cfg = { cfg; shards = Array.init cfg.shards (make_shard cfg) }

(* {1 Transitions} *)

type bad = Bad_misaligned | Bad_foreign | Bad_oversize

type step =
  | Alloc  (** FM takes a free frame *)
  | Commit_rx  (** FM produces the limbo frame into xFill *)
  | Commit_tx  (** FM produces the limbo frame into xTX *)
  | Cancel  (** FM returns the limbo frame unused *)
  | Host_deliver  (** honest host: pending frame into xRX *)
  | Host_deliver_bad of bad  (** hostile host: garbage descriptor *)
  | Smash of int  (** hostile host: smash the shared producer index *)
  | Fm_poll  (** FM receive poll, routed through the breaker *)
  | Reap_tx  (** honest host completes a Tx frame *)
  | Reap_tx_bad  (** hostile completion for a frame not out on Tx *)
  | Register  (** FM lends the limbo frame zero-copy (SEND_ZC) *)
  | Notif  (** honest host: notif for the oldest lent frame *)
  | Notif_bad  (** hostile notif for a frame not Registered *)
  | Tick  (** the breaker cooldown elapses *)
  | Fault_toggle  (** arm / clear the persistent fault *)

type transition = { shard : int; step : step }

let bad_name = function
  | Bad_misaligned -> "misaligned"
  | Bad_foreign -> "foreign"
  | Bad_oversize -> "oversize"

let step_name = function
  | Alloc -> "alloc"
  | Commit_rx -> "commit-rx"
  | Commit_tx -> "commit-tx"
  | Cancel -> "cancel"
  | Host_deliver -> "deliver"
  | Host_deliver_bad b -> "deliver-bad:" ^ bad_name b
  | Smash i -> Printf.sprintf "smash:%d" i
  | Fm_poll -> "poll"
  | Reap_tx -> "reap-tx"
  | Reap_tx_bad -> "reap-tx-bad"
  | Register -> "register"
  | Notif -> "notif"
  | Notif_bad -> "notif-bad"
  | Tick -> "tick"
  | Fault_toggle -> "fault-toggle"

let transition_name t = Printf.sprintf "%s#%d" (step_name t.step) t.shard

(* Hostile values for the shared producer word, relative to the
   trusted state: a regress, a just-out-of-window jump, the maximal
   in-window overshoot (accepted — the slots hold whatever the host
   left there) and a far-future value. *)
let smash_candidates cfg sh =
  let tp = Rings.Certified.trusted_prod sh.ring in
  let tc = Rings.Certified.trusted_cons sh.ring in
  [
    Rings.U32.sub tc 1;
    Rings.U32.add tc (cfg.ring_size + 1);
    Rings.U32.add tc cfg.ring_size;
    Rings.U32.add tp 0x4000_0000;
  ]

let good_len cfg = cfg.frame_size - 4

(* Room in the ring as the honest host sees it: its own true producer
   index against the consumer word the enclave published. *)
let host_has_room cfg sh =
  Rings.U32.distance ~ahead:sh.shadow_prod
    ~behind:(Rings.Layout.read_cons sh.layout)
  < cfg.ring_size

(* A frame currently NOT out on [routine], as a wrong-owner probe
   target; [None] when every frame is out on it. *)
let foreign_frame_for sh routine =
  let not_owned st =
    match routine with
    | Rakis.Umem.Rx -> st <> Stm_model.Umem.Out_rx
    | Rakis.Umem.Tx -> st <> Stm_model.Umem.Out_tx
  in
  let frames = sh.m_umem.Stm_model.Umem.frames in
  let rec find i =
    if i >= Array.length frames then None
    else if not_owned frames.(i) then
      Some (i * sh.m_umem.Stm_model.Umem.frame_size)
    else find (i + 1)
  in
  find 0

(* A frame currently NOT Registered, as a forged-notif target; [None]
   when every frame is lent out zero-copy. *)
let unregistered_frame sh =
  let frames = sh.m_umem.Stm_model.Umem.frames in
  let rec find i =
    if i >= Array.length frames then None
    else if frames.(i) <> Stm_model.Umem.Registered then
      Some (i * sh.m_umem.Stm_model.Umem.frame_size)
    else find (i + 1)
  in
  find 0

let enabled_on cfg m k =
  let sh = m.shards.(k) in
  let obs = Rakis.Health.observe sh.breaker in
  let room = host_has_room cfg sh in
  let steps = ref [] in
  let add c s = if c then steps := s :: !steps in
  add (sh.limbo = None && Rakis.Umem.free_frames sh.umem > 0) Alloc;
  add (sh.limbo <> None) Commit_rx;
  add (sh.limbo <> None) Commit_tx;
  add (sh.limbo <> None) Cancel;
  add (room && sh.host_pending <> []) Host_deliver;
  add room (Host_deliver_bad Bad_misaligned);
  add
    (room && foreign_frame_for sh Rakis.Umem.Rx <> None)
    (Host_deliver_bad Bad_foreign);
  add (room && sh.host_pending <> []) (Host_deliver_bad Bad_oversize);
  List.iteri (fun i _ -> add true (Smash i)) (smash_candidates cfg sh);
  add true Fm_poll;
  add (sh.tx_out <> []) Reap_tx;
  add (foreign_frame_for sh Rakis.Umem.Tx <> None) Reap_tx_bad;
  add (sh.limbo <> None) Register;
  add (sh.zc_out <> []) Notif;
  add (unregistered_frame sh <> None) Notif_bad;
  add
    (obs.Rakis.Health.obs_state = Rakis.Health.Open
    && not obs.Rakis.Health.cooldown_elapsed)
    Tick;
  add true Fault_toggle;
  List.rev_map (fun step -> { shard = k; step }) !steps

let enabled m =
  List.concat (List.init (Array.length m.shards) (enabled_on m.cfg m))

(* {2 Applying a transition}

   [note] collects divergence reports (invariant V6 verdict checks are
   done inline here, where both verdicts are in hand). *)

let desc_of ~offset ~len =
  Int64.logor
    (Int64.logand (Int64.of_int offset) 0xFFFF_FFFFL)
    (Int64.shift_left (Int64.of_int len) 32)

let deliver cfg sh ~offset ~len =
  let slot = Rings.Layout.slot_off sh.layout sh.shadow_prod in
  Mem.Region.set_u64 sh.layout.Rings.Layout.region slot (desc_of ~offset ~len);
  sh.shadow_prod <- Rings.U32.succ sh.shadow_prod;
  Rings.Layout.write_prod sh.layout sh.shadow_prod;
  sh.m_ring <- Stm_model.Ring.host_write_prod sh.m_ring sh.shadow_prod;
  ignore cfg

let fm_poll note cfg sh ~mutant =
  let now = !(sh.clock) in
  let d = Rakis.Health.allow sh.breaker in
  let mb, md = Stm_model.Breaker.allow sh.m_breaker ~now in
  sh.m_breaker <- mb;
  if d <> md then note "V5: breaker decision diverges from model";
  match d with
  | Rakis.Health.Slow -> ()
  | Rakis.Health.Fast | Rakis.Health.Probe -> (
      let is_probe = d = Rakis.Health.Probe in
      if sh.fault_armed then (
        (* the armed fault makes the fast-path op fail terminally *)
        Rakis.Health.record_failure sh.breaker;
        sh.m_breaker <- Stm_model.Breaker.record_failure sh.m_breaker ~now)
      else
        let read ~slot_off =
          Mem.Region.get_u64 (Rings.Certified.region sh.ring) slot_off
        in
        match Rings.Certified.consume sh.ring ~read with
        | Error `Ring_empty ->
            let mr, slot = Stm_model.Ring.consume sh.m_ring in
            sh.m_ring <- mr;
            if slot <> None then
              note "V3: model ring consumed where real ring was empty";
            if is_probe then (
              (* nothing to receive: decline the probe, release the slot *)
              (match mutant with
              | Some Probe_slot_leak -> ()
              | _ -> Rakis.Health.cancel_probe sh.breaker);
              sh.m_breaker <- Stm_model.Breaker.cancel_probe sh.m_breaker)
        | Ok desc ->
            let mr, slot = Stm_model.Ring.consume sh.m_ring in
            sh.m_ring <- mr;
            if slot = None then
              note "V3: real ring consumed where model ring was empty";
            let offset = Int64.to_int (Int64.logand desc 0xFFFF_FFFFL) in
            let len = Int64.to_int (Int64.shift_right_logical desc 32) in
            let accepted =
              match mutant with
              | Some Skip_reclaim -> true
              | _ ->
                  Result.is_ok
                    (Rakis.Umem.reclaim sh.umem Rakis.Umem.Rx ~offset ~len ())
            in
            let mu, m_accepted =
              Stm_model.Umem.reclaim sh.m_umem Rakis.Umem.Rx ~offset ~len
            in
            sh.m_umem <- mu;
            if accepted <> m_accepted then
              note "V6: descriptor verdict diverges from model";
            Rakis.Health.record_success sh.breaker;
            if is_probe && mutant = Some Probe_off_by_one then
              Rakis.Health.record_success sh.breaker;
            sh.m_breaker <- Stm_model.Breaker.record_success sh.m_breaker);
      ignore cfg

let apply note m { shard; step } =
  let cfg = m.cfg in
  let sh = m.shards.(shard) in
  match step with
  | Alloc -> (
      match Rakis.Umem.alloc sh.umem with
      | None -> note "umem: alloc failed on an enabled transition"
      | Some off ->
          sh.limbo <- Some off;
          let mu, moff = Stm_model.Umem.alloc sh.m_umem in
          sh.m_umem <- mu;
          if moff <> Some off then
            note "V4: alloc order diverges from model FIFO")
  | Commit_rx ->
      let off = Option.get sh.limbo in
      Rakis.Umem.commit sh.umem off Rakis.Umem.Rx;
      sh.m_umem <- Stm_model.Umem.commit sh.m_umem off Rakis.Umem.Rx;
      sh.host_pending <- sh.host_pending @ [ off ];
      sh.limbo <- None
  | Commit_tx ->
      let off = Option.get sh.limbo in
      Rakis.Umem.commit sh.umem off Rakis.Umem.Tx;
      sh.m_umem <- Stm_model.Umem.commit sh.m_umem off Rakis.Umem.Tx;
      sh.tx_out <- sh.tx_out @ [ off ];
      sh.limbo <- None
  | Cancel ->
      let off = Option.get sh.limbo in
      Rakis.Umem.cancel sh.umem off;
      sh.m_umem <- Stm_model.Umem.cancel sh.m_umem off;
      sh.limbo <- None
  | Host_deliver ->
      let off = List.hd sh.host_pending in
      sh.host_pending <- List.tl sh.host_pending;
      deliver cfg sh ~offset:off ~len:(good_len cfg)
  | Host_deliver_bad Bad_misaligned ->
      deliver cfg sh ~offset:(cfg.frame_size / 2) ~len:(good_len cfg)
  | Host_deliver_bad Bad_foreign ->
      let off = Option.get (foreign_frame_for sh Rakis.Umem.Rx) in
      deliver cfg sh ~offset:off ~len:(good_len cfg)
  | Host_deliver_bad Bad_oversize ->
      (* a real pending frame, but with a length past the frame end *)
      let off = List.hd sh.host_pending in
      sh.host_pending <- List.tl sh.host_pending;
      deliver cfg sh ~offset:off ~len:(cfg.frame_size + 1)
  | Smash i ->
      let v = List.nth (smash_candidates cfg sh) i in
      Hostos.Malice.smash_prod sh.layout v;
      sh.m_ring <- Stm_model.Ring.host_write_prod sh.m_ring v
  | Fm_poll -> fm_poll note cfg sh ~mutant:cfg.mutant
  | Reap_tx -> (
      let off = List.hd sh.tx_out in
      sh.tx_out <- List.tl sh.tx_out;
      let accepted =
        Result.is_ok (Rakis.Umem.reclaim sh.umem Rakis.Umem.Tx ~offset:off ())
      in
      let mu, m_accepted =
        Stm_model.Umem.reclaim sh.m_umem Rakis.Umem.Tx ~offset:off ~len:0
      in
      sh.m_umem <- mu;
      if accepted <> m_accepted then
        note "V6: Tx completion verdict diverges from model";
      match (accepted, m_accepted) with
      | false, false -> note "umem: honest Tx completion refused"
      | _ -> ())
  | Reap_tx_bad ->
      let off = Option.get (foreign_frame_for sh Rakis.Umem.Tx) in
      let accepted =
        Result.is_ok (Rakis.Umem.reclaim sh.umem Rakis.Umem.Tx ~offset:off ())
      in
      let mu, m_accepted =
        Stm_model.Umem.reclaim sh.m_umem Rakis.Umem.Tx ~offset:off ~len:0
      in
      sh.m_umem <- mu;
      if accepted then note "V6: wrong-owner Tx completion accepted";
      if accepted <> m_accepted then
        note "V6: Tx completion verdict diverges from model"
  | Register ->
      let off = Option.get sh.limbo in
      Rakis.Umem.register sh.umem off;
      sh.m_umem <- Stm_model.Umem.register sh.m_umem off;
      sh.zc_out <- sh.zc_out @ [ off ];
      sh.limbo <- None;
      (* The mutant frees on the completion CQE instead of waiting for
         the notif — the use-after-reuse-before-notif bug shape.  The
         frame goes free while its notif is still pending, so V4 (the
         model still says Registered) and V8 (registered <> pending
         notifs) flag it on the very next check. *)
      if cfg.mutant = Some Zc_release_early then
        ignore (Rakis.Umem.release sh.umem ~offset:off)
  | Notif -> (
      let off = List.hd sh.zc_out in
      sh.zc_out <- List.tl sh.zc_out;
      let accepted = Result.is_ok (Rakis.Umem.release sh.umem ~offset:off) in
      let mu, m_accepted = Stm_model.Umem.release sh.m_umem ~offset:off in
      sh.m_umem <- mu;
      if accepted <> m_accepted then
        note "V8: notif verdict diverges from model";
      match (accepted, m_accepted) with
      | false, false -> note "V8: honest notif refused"
      | _ -> ())
  | Notif_bad ->
      let off = Option.get (unregistered_frame sh) in
      let accepted = Result.is_ok (Rakis.Umem.release sh.umem ~offset:off) in
      let mu, m_accepted = Stm_model.Umem.release sh.m_umem ~offset:off in
      sh.m_umem <- mu;
      if accepted then note "V8: forged/duplicate notif accepted";
      if accepted <> m_accepted then
        note "V8: notif verdict diverges from model"
  | Tick -> sh.clock := Int64.add !(sh.clock) cfg.cooldown
  | Fault_toggle -> sh.fault_armed <- not sh.fault_armed

(* {1 Invariants (V1-V7)} *)

let check_shard note sh ~prev_state =
  let now = !(sh.clock) in
  if not (Rakis.Umem.conservation_holds sh.umem) then
    note "V1: UMem conservation violated";
  if not (Rings.Certified.invariant_holds sh.ring) then
    note "V2: certified ring invariant (eq. 1) violated";
  if not (Stm_model.Ring.agrees sh.m_ring sh.ring) then
    note "V3: ring state diverges from model";
  if not (Stm_model.Umem.agrees sh.m_umem sh.umem) then
    note "V4: UMem partition diverges from model";
  if
    not
      (Stm_model.Breaker.agrees sh.m_breaker ~now
         (Rakis.Health.observe sh.breaker))
  then note "V5: breaker state diverges from model";
  let cur = Rakis.Health.state sh.breaker in
  if not (Stm_model.Breaker.legal_edge prev_state cur) then
    note
      (Printf.sprintf "V5: illegal breaker edge %s -> %s"
         (Rakis.Health.state_name prev_state)
         (Rakis.Health.state_name cur));
  if Rakis.Health.opens sh.breaker <> sh.m_breaker.Stm_model.Breaker.opens then
    note "V5: opens count diverges from model";
  if Rakis.Health.closes sh.breaker <> sh.m_breaker.Stm_model.Breaker.closes
  then note "V5: closes count diverges from model";
  if !(sh.on_open_fires) <> Rakis.Health.opens sh.breaker then
    note "V5: on_open firings do not match opens";
  (* Notif-anchored ownership: every Registered frame has exactly one
     notif pending (the driver's zc_out list), mirroring the io_uring
     FM's accounting_holds. *)
  if Rakis.Umem.registered sh.umem <> List.length sh.zc_out then
    note "V8: registered frames do not match pending notifs"

(* {1 State abstraction (dedup key)} *)

type rel = In_window of int | Behind of int | Far

type desc_class = { dc_frame : int; dc_len_ok : bool }
(* [dc_frame] is the frame index, or [-1] for junk (misaligned or out
   of range). *)

type shard_obs = {
  o_used : int;
  o_lsb : int;  (* trusted consumer mod ring size: slot addressing *)
  o_shared : rel;  (* shared producer word vs trusted consumer *)
  o_shadow : rel;  (* honest host's index vs trusted consumer *)
  o_slots : desc_class list;  (* every ring slot's descriptor *)
  o_ring_fail : int;  (* capped *)
  o_frames : Stm_model.Umem.frame list;
  o_queue : int list;  (* free-list order: alloc determinism *)
  o_rejects : int;  (* capped *)
  o_limbo : int option;
  o_pending : int list;
  o_txq : int list;
  o_zcq : int list;  (* Registered frames in notif order *)
  o_breaker : Rakis.Health.state;
  o_bf : int;
  o_bs : int;
  o_inflight : bool;
  o_cooled : bool;
  o_fault : bool;
}

let cap n v = min n v

let rel_of cfg ~tcons v =
  let d = Rings.U32.distance ~ahead:v ~behind:tcons in
  if d <= cfg.ring_size + 1 then In_window d
  else
    let b = Rings.U32.distance ~ahead:tcons ~behind:v in
    if b <= cfg.ring_size + 1 then Behind b else Far

let desc_class_at cfg sh idx =
  let desc =
    Mem.Region.get_u64 sh.layout.Rings.Layout.region
      (Rings.Layout.slot_off sh.layout idx)
  in
  let offset = Int64.to_int (Int64.logand desc 0xFFFF_FFFFL) in
  let len = Int64.to_int (Int64.shift_right_logical desc 32) in
  let umem_size = cfg.frames * cfg.frame_size in
  {
    dc_frame =
      (if offset >= 0 && offset < umem_size && offset mod cfg.frame_size = 0
       then offset / cfg.frame_size
       else -1);
    dc_len_ok = len <= cfg.frame_size;
  }

let observe_shard cfg sh =
  let tc = Rings.Certified.trusted_cons sh.ring in
  let obs = Rakis.Health.observe sh.breaker in
  {
    o_used =
      Rings.U32.distance ~ahead:(Rings.Certified.trusted_prod sh.ring)
        ~behind:tc;
    o_lsb = tc land (cfg.ring_size - 1);
    o_shared = rel_of cfg ~tcons:tc (Rings.Layout.read_prod sh.layout);
    o_shadow = rel_of cfg ~tcons:tc sh.shadow_prod;
    o_slots = List.init cfg.ring_size (desc_class_at cfg sh);
    o_ring_fail = cap 2 (Rings.Certified.failures sh.ring);
    o_frames = Array.to_list sh.m_umem.Stm_model.Umem.frames;
    o_queue = sh.m_umem.Stm_model.Umem.queue;
    o_rejects = cap 2 (Rakis.Umem.rejects sh.umem);
    o_limbo = Option.map (fun off -> off / cfg.frame_size) sh.limbo;
    o_pending = List.map (fun off -> off / cfg.frame_size) sh.host_pending;
    o_txq = List.map (fun off -> off / cfg.frame_size) sh.tx_out;
    o_zcq = List.map (fun off -> off / cfg.frame_size) sh.zc_out;
    o_breaker = obs.Rakis.Health.obs_state;
    o_bf = obs.Rakis.Health.failure_streak;
    o_bs = obs.Rakis.Health.probe_successes;
    o_inflight = obs.Rakis.Health.probe_inflight;
    o_cooled = obs.Rakis.Health.cooldown_elapsed;
    o_fault = sh.fault_armed;
  }

let observe m =
  List.init (Array.length m.shards) (fun k -> observe_shard m.cfg m.shards.(k))

(* {1 The search} *)

type violation = { path : string list; what : string list }

type report = {
  cfg : config;
  depth : int;  (* requested bound *)
  depth_reached : int;
  states : int;
  transitions : int;
  truncated : bool;  (* hit the state budget before the depth bound *)
  violations : violation list;
}

let passed r = r.violations = [] && r.states > 0

let default_config =
  {
    shards = 2;
    ring_size = 2;
    frames = 3;
    frame_size = 64;
    threshold = 2;
    probes_needed = 2;
    cooldown = 100L;
    mutant = None;
  }

let replay cfg rev_path =
  let m = boot cfg in
  let sink _ = () in
  List.iter (fun tr -> apply sink m tr) (List.rev rev_path);
  m

(* Apply one transition with the full V1-V7 check battery; divergence
   notes go through [note]. *)
let checked_apply note m tr =
  let others_before = List.filteri (fun k _ -> k <> tr.shard) (observe m) in
  let prev_state = Rakis.Health.state m.shards.(tr.shard).breaker in
  apply note m tr;
  check_shard note m.shards.(tr.shard) ~prev_state;
  let obs = observe m in
  let others_after = List.filteri (fun k _ -> k <> tr.shard) obs in
  if others_before <> others_after then
    note "V7: transition leaked into another shard";
  obs

(* Single checked random walk — the state-machine-test entry point.
   Each choice indexes into the enabled-transition list; the walk (and
   so a QCheck-generated [choices] list) is deterministic and shrinks
   naturally.  Returns the violations hit and the trail walked. *)
let drive ?(config = default_config) ~choices () =
  let m = boot config in
  let violations = ref [] in
  let trail = ref [] in
  List.iter
    (fun c ->
      let en = enabled m in
      if en <> [] then begin
        let tr = List.nth en (abs c mod List.length en) in
        trail := transition_name tr :: !trail;
        let notes = ref [] in
        let note s = if not (List.mem s !notes) then notes := s :: !notes in
        ignore (checked_apply note m tr);
        if !notes <> [] then
          violations :=
            { path = List.rev !trail; what = List.rev !notes } :: !violations
      end)
    choices;
  (List.rev !violations, List.rev !trail)

let explore ?(config = default_config) ?(depth = 5) ?(max_states = 250_000)
    ?(max_violations = 16) () =
  let cfg = config in
  let visited : (shard_obs list, unit) Hashtbl.t = Hashtbl.create 4096 in
  let frontier = Queue.create () in
  let violations = ref [] in
  let n_violations = ref 0 in
  let transitions = ref 0 in
  let depth_reached = ref 0 in
  let truncated = ref false in
  let m0 = boot cfg in
  Hashtbl.replace visited (observe m0) ();
  Queue.add ([], 0) frontier;
  (try
     while not (Queue.is_empty frontier) do
       let rev_path, len = Queue.pop frontier in
       if len < depth then
         let m = replay cfg rev_path in
         let steps = enabled m in
         List.iter
           (fun tr ->
             let m' = replay cfg rev_path in
             incr transitions;
             let notes = ref [] in
             let note s = if not (List.mem s !notes) then notes := s :: !notes in
             let obs = checked_apply note m' tr in
             if !notes <> [] then (
               incr n_violations;
               if List.length !violations < max_violations then
                 violations :=
                   {
                     path =
                       List.rev_map transition_name (tr :: rev_path);
                     what = List.rev !notes;
                   }
                   :: !violations)
             else if not (Hashtbl.mem visited obs) then (
               Hashtbl.replace visited obs ();
               depth_reached := max !depth_reached (len + 1);
               if Hashtbl.length visited >= max_states then (
                 truncated := true;
                 raise Exit);
               Queue.add (tr :: rev_path, len + 1) frontier))
           steps
     done
   with Exit -> ());
  {
    cfg;
    depth;
    depth_reached = !depth_reached;
    states = Hashtbl.length visited;
    transitions = !transitions;
    truncated = !truncated;
    violations = List.rev !violations;
  }

let pp_violation ppf v =
  Format.fprintf ppf "@[<v 2>after %s:@,%a@]"
    (String.concat " ; " v.path)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    v.what

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>product machine: %d shard%s, ring=%d, frames=%d, threshold=%d, \
     probes=%d%s@,\
     states visited:   %d%s@,\
     transitions:      %d@,\
     depth:            %d of %d requested@,\
     violations:       %d@]"
    r.cfg.shards
    (if r.cfg.shards = 1 then "" else "s")
    r.cfg.ring_size r.cfg.frames r.cfg.threshold r.cfg.probes_needed
    (match r.cfg.mutant with
    | None -> ""
    | Some m -> Printf.sprintf ", mutant=%s" (mutant_name m))
    r.states
    (if r.truncated then " (budget hit)" else "")
    r.transitions r.depth_reached r.depth
    (List.length r.violations);
  if r.violations <> [] then
    Format.fprintf ppf "@,%a"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_violation)
      r.violations
