(* KV load generator (ROADMAP item 3, DESIGN.md §15).

   Drives the {!Memcached} server over XSK UDP with the load shapes the
   overload-control evaluation needs and the simple memaslap clone in
   [Memcached.run] lacks:

   - open- or closed-loop arrival (closed loop self-clocks and masks
     server-side queueing; open loop keeps offering at a fixed rate so
     overload actually builds a standing queue);
   - Zipf key popularity (skew [s]; 0 = uniform) via an inverse-CDF
     table — hot keys concentrate lock and store traffic the way real
     cache workloads do;
   - a flash crowd: at a configured offered-count, extra full-throttle
     connections join for a burst of ops, then leave;
   - connection churn: clients periodically close and reopen their
     socket mid-run.

   Accounting is the point.  Every offered op terminates in exactly one
   of [completed] / [shed] (synchronous EAGAIN — backpressure from an
   overload controller, only seen when the client API runs on RAKIS) /
   [lost] (no reply within [timeout]).  A reply that arrives after its
   op was declared lost is drained and counted [late] — it reached the
   client, so it is not silent loss.  [lost - late - rdp_gave_up] is
   checked against the accounted loss counters
   ({!Harness.unaccounted}): any remainder is an unaccounted datagram,
   which is a bug.  With [retries > 0] a timed-out
   op is re-sent (datagram-level accounting then overcounts offered
   traffic by [retried]); soak runs use [retries = 0].

   Goodput is tracked per phase — [baseline] (before the crowd),
   [crowd], [recovery] (after it) — and the recovery phase is further
   split into fixed windows so the metastability check is "some window
   reaches >= 95% of baseline goodput", not just the phase average. *)

type mode = Closed of { think : int64 } | Open of { interarrival : int64 }

type flash = { at_op : int; extra_connections : int; crowd_ops : int }

type config = {
  mode : mode;
  connections : int;
  ops : int;
  value_size : int;
  zipf : float;
  key_space : int;
  set_every : int;
  timeout : int64;
  retries : int;
  flash : flash option;
  churn_every : int;
  rdp : bool;
  seed : int64;
}

let default =
  {
    mode = Closed { think = 0L };
    connections = 32;
    ops = 20_000;
    value_size = 100;
    zipf = 0.99;
    key_space = Memcached.key_space;
    set_every = 10;
    timeout = Sim.Cycles.of_us 300.;
    retries = 0;
    flash = None;
    churn_every = 0;
    rdp = false;
    seed = 0x10adL;
  }

(* {1 Zipf sampling} *)

(* Inverse-CDF table: P(rank i) proportional to 1/(i+1)^s.  Empty array
   means uniform. *)
let zipf_cdf ~n ~s =
  if s <= 0. then [||]
  else begin
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
      cdf.(i) <- !acc
    done;
    let total = !acc in
    Array.iteri (fun i x -> cdf.(i) <- x /. total) cdf;
    cdf
  end

let sample_key rng cdf n =
  if Array.length cdf = 0 then Sim.Rng.int rng n
  else begin
    let u = Sim.Rng.float rng 1.0 in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* {1 Shared run state} *)

(* Recovery goodput is judged in fixed windows this wide. *)
let recovery_window = Sim.Cycles.of_us 100.

type state = {
  cfg : config;
  hist : Obs.Metrics.histogram;
  mutable base_offered : int;
  mutable crowd_offered : int;
  mutable completed : int;
  mutable shed : int;
  mutable lost : int;
  mutable late : int;
  mutable retried : int;
  mutable rdp_retransmits : int;
  mutable rdp_gave_up : int;
  mutable start : int64;
  mutable crowd_launched : bool;
  mutable crowd_start : int64;
  mutable crowd_end : int64;
  mutable baseline_done : int;
  mutable crowd_done : int;
  mutable recovery_done : int;
  recovery_windows : (int, int ref) Hashtbl.t;
  mutable live : int;
  mutable crowd_live : int;
  on_done : unit -> unit;
}

let make_state cfg ~on_done =
  {
    cfg;
    hist = Obs.Metrics.histogram (Obs.Metrics.create ()) "loadgen.latency_cycles";
    base_offered = 0;
    crowd_offered = 0;
    completed = 0;
    shed = 0;
    lost = 0;
    late = 0;
    retried = 0;
    rdp_retransmits = 0;
    rdp_gave_up = 0;
    start = 0L;
    crowd_launched = false;
    crowd_start = 0L;
    crowd_end = 0L;
    baseline_done = 0;
    crowd_done = 0;
    recovery_done = 0;
    recovery_windows = Hashtbl.create 64;
    live = 0;
    crowd_live = 0;
    on_done;
  }

let record_completion st now latency =
  st.completed <- st.completed + 1;
  Obs.Metrics.observe st.hist (Int64.to_int latency);
  if st.crowd_start = 0L then st.baseline_done <- st.baseline_done + 1
  else if st.crowd_end = 0L then st.crowd_done <- st.crowd_done + 1
  else begin
    st.recovery_done <- st.recovery_done + 1;
    let idx = Int64.to_int (Int64.div (Int64.sub now st.crowd_end) recovery_window) in
    match Hashtbl.find_opt st.recovery_windows idx with
    | Some r -> incr r
    | None -> Hashtbl.add st.recovery_windows idx (ref 1)
  end

let maybe_finished st =
  if st.live = 0 && st.crowd_live = 0 then st.on_done ()

(* {1 Closed-loop client} *)

let dst = (Packet.Addr.Ip.of_repr "10.0.0.1", Memcached.port)

let build_request st rng cdf value =
  let key = Printf.sprintf "key-%06d" (sample_key rng cdf st.cfg.key_space) in
  if st.cfg.set_every > 0 && Sim.Rng.int rng st.cfg.set_every = 0 then
    Memcached.set_request key value
  else Memcached.get_request key

(* One closed-loop op.  Replies are matched to requests by FIFO order
   (UDP on the simulated wire is in-order per flow), which is only
   sound while the connection has no permanently-unanswered request
   ahead of the current one.  A timeout therefore RECYCLES the socket
   (close + reopen), the way real UDP cache clients treat a request
   timeout as connection trouble.  This is load-bearing for the
   accounting, not just realism: one permanently-missing reply (a
   server-side shed) would otherwise knock the FIFO association
   off-by-one for the rest of the connection — every later op would
   read its predecessor's echo, then time out itself, turning a single
   shed into a full-timeout-per-op cascade.  A fresh socket restarts
   the association clean; a straggler reply still in flight toward the
   closed port dies in the peer kernel's [udp.no_socket_drops]
   counter, which the CLI's silent-loss check reads — accounted loss,
   not silence. *)
(* The client channel: a raw UDP socket, or — with [cfg.rdp] — an RDP
   reliable-datagram link whose retransmit clock absorbs wire faults
   before they cost the op its timeout. *)
type chan = Fd of Libos.Api.fd ref | Link of Rdp_link.t ref

let open_chan api st =
  if st.cfg.rdp then Link (ref (Rdp_link.create ~name:"rdp.client" api))
  else Fd (ref (api.Libos.Api.udp_socket ()))

(* Fold a finished link's ARQ counters into the run stats; closing it
   first turns any unacked sends into counted give-ups. *)
let retire_link st link =
  Rdp_link.close link;
  let r = Rdp_link.rdp link in
  st.rdp_retransmits <- st.rdp_retransmits + Netstack.Rdp.retransmits r;
  st.rdp_gave_up <- st.rdp_gave_up + Netstack.Rdp.gave_up r

let recycle api st chan =
  match chan with
  | Fd fdr ->
      ignore (api.Libos.Api.close !fdr);
      fdr := api.Libos.Api.udp_socket ()
  | Link lr ->
      retire_link st !lr;
      lr := Rdp_link.create ~name:"rdp.client" api

(* End-of-client barrier.  The raw-socket path leaves its fd open (a
   straggler reply dies unread, exactly as before); the RDP path must
   pump until every DATA is acked or becomes a counted give-up, then
   fold the link's counters into the stats. *)
let finish_chan _api st chan =
  match chan with
  | Fd _ -> ()
  | Link lr ->
      Rdp_link.flush ~timeout:st.cfg.timeout !lr;
      retire_link st !lr

let one_op api st ~rng ~cdf ~chan ~value =
  let cfg = st.cfg in
  let req = build_request st rng cdf value in
  match chan with
  | Fd fdr ->
      let rec attempt n =
        let t0 = Libos.Api.now api in
        match api.Libos.Api.sendto !fdr req dst with
        | Error Abi.Errno.EAGAIN ->
            if n < cfg.retries then begin
              st.retried <- st.retried + 1;
              Libos.Api.delay api cfg.timeout;
              attempt (n + 1)
            end
            else st.shed <- st.shed + 1
        | Error _ -> st.lost <- st.lost + 1
        | Ok _ -> (
            match
              api.Libos.Api.poll [ (!fdr, [ `In ]) ] ~timeout:(Some cfg.timeout)
            with
            | Ok (_ :: _) -> (
                match api.Libos.Api.recvfrom !fdr 65536 with
                | Ok _ ->
                    let now = Libos.Api.now api in
                    record_completion st now (Int64.sub now t0)
                | Error _ ->
                    recycle api st chan;
                    st.lost <- st.lost + 1)
            | Ok [] | Error _ ->
                recycle api st chan;
                if n < cfg.retries then begin
                  st.retried <- st.retried + 1;
                  attempt (n + 1)
                end
                else st.lost <- st.lost + 1)
      in
      attempt 0
  | Link lr ->
      (* The link hides EAGAIN behind its retransmit clock, so the only
         client-visible outcomes are a (deduplicated) reply or a
         timeout.  A timeout still recycles: the fresh link restarts
         sequence state clean and the old one's unacked DATA become
         counted give-ups. *)
      let rec attempt n =
        let t0 = Libos.Api.now api in
        Rdp_link.send !lr req dst;
        match Rdp_link.recv ~timeout:cfg.timeout !lr with
        | Some _ ->
            let now = Libos.Api.now api in
            record_completion st now (Int64.sub now t0)
        | None ->
            recycle api st chan;
            if n < cfg.retries then begin
              st.retried <- st.retried + 1;
              attempt (n + 1)
            end
            else st.lost <- st.lost + 1
      in
      attempt 0

let churn api st ~chan ~count =
  if st.cfg.churn_every > 0 && !count >= st.cfg.churn_every then begin
    count := 0;
    (* Replies in flight toward the closed port can never be drained
       here; they surface in the host kernel's drop accounting. *)
    recycle api st chan
  end

let crowd_client api st ~rng ~cdf ~budget () =
  let chan = open_chan api st in
  let value = String.make st.cfg.value_size 'v' in
  for _ = 1 to budget do
    st.crowd_offered <- st.crowd_offered + 1;
    one_op api st ~rng ~cdf ~chan ~value
  done;
  finish_chan api st chan;
  st.crowd_live <- st.crowd_live - 1;
  if st.crowd_live = 0 then st.crowd_end <- Libos.Api.now api;
  maybe_finished st

(* Fired from the regular clients' op loop the first time the global
   offered count crosses [f.at_op]. *)
let maybe_flash api st ~cdf =
  match st.cfg.flash with
  | Some f when (not st.crowd_launched) && st.base_offered >= f.at_op ->
      st.crowd_launched <- true;
      st.crowd_start <- Libos.Api.now api;
      st.crowd_live <- f.extra_connections;
      let budget = max 1 (f.crowd_ops / f.extra_connections) in
      for c = 1 to f.extra_connections do
        let rng =
          Sim.Rng.create ~seed:(Int64.add st.cfg.seed (Int64.of_int (10_000 + c)))
        in
        api.Libos.Api.spawn
          ~name:(Printf.sprintf "loadgen-crowd%d" c)
          (fun api -> crowd_client api st ~rng ~cdf ~budget ())
      done
  | _ -> ()

let closed_client api st ~rng ~cdf ~think () =
  let chan = open_chan api st in
  let value = String.make st.cfg.value_size 'v' in
  let since_churn = ref 0 in
  let rec loop () =
    if st.base_offered < st.cfg.ops then begin
      maybe_flash api st ~cdf;
      churn api st ~chan ~count:since_churn;
      st.base_offered <- st.base_offered + 1;
      incr since_churn;
      one_op api st ~rng ~cdf ~chan ~value;
      if Int64.compare think 0L > 0 then Libos.Api.delay api think;
      loop ()
    end
    else begin
      finish_chan api st chan;
      st.live <- st.live - 1;
      maybe_finished st
    end
  in
  loop ()

(* {1 Open-loop client}

   One sender fiber offering at fixed inter-arrival plus one receiver
   fiber matching replies FIFO against a queue of send timestamps. *)

let open_client api st ~rng ~cdf ~interarrival ~budget () =
  let chan = open_chan api st in
  let value = String.make st.cfg.value_size 'v' in
  let pending = Queue.create () in
  let sender_done = ref false in
  api.Libos.Api.spawn ~name:"loadgen-rx" (fun api ->
      let cfg = st.cfg in
      let prune () =
        let now = Libos.Api.now api in
        let rec go () =
          match Queue.peek_opt pending with
          | Some t0 when Int64.compare (Int64.sub now t0) cfg.timeout > 0 ->
              ignore (Queue.take pending);
              st.lost <- st.lost + 1;
              go ()
          | _ -> ()
        in
        go ()
      in
      let credit () =
        let now = Libos.Api.now api in
        match Queue.take_opt pending with
        | Some t0 -> record_completion st now (Int64.sub now t0)
        | None -> st.late <- st.late + 1
      in
      let finished () =
        if !sender_done && Queue.is_empty pending then begin
          finish_chan api st chan;
          st.live <- st.live - 1;
          maybe_finished st;
          true
        end
        else false
      in
      let rec rx () =
        match chan with
        | Fd fdr -> (
            match
              api.Libos.Api.poll [ (!fdr, [ `In ]) ] ~timeout:(Some cfg.timeout)
            with
            | Ok (_ :: _) ->
                (match api.Libos.Api.recvfrom !fdr 65536 with
                | Ok _ -> credit ()
                | Error _ -> ());
                rx ()
            | Ok [] | Error _ ->
                prune ();
                if not (finished ()) then rx ())
        | Link lr -> (
            match Rdp_link.recv ~timeout:cfg.timeout !lr with
            | Some _ ->
                credit ();
                rx ()
            | None ->
                prune ();
                if not (finished ()) then rx ())
      in
      rx ());
  let since_churn = ref 0 in
  for _ = 1 to budget do
    maybe_flash api st ~cdf;
    (* No churn mid-open-loop: the receiver holds the channel. *)
    ignore since_churn;
    st.base_offered <- st.base_offered + 1;
    let req = build_request st rng cdf value in
    (match chan with
    | Fd fdr -> (
        match api.Libos.Api.sendto !fdr req dst with
        | Ok _ -> Queue.add (Libos.Api.now api) pending
        | Error Abi.Errno.EAGAIN -> st.shed <- st.shed + 1
        | Error _ -> st.lost <- st.lost + 1)
    | Link lr ->
        (* EAGAIN is absorbed by the link's retransmit clock, so every
           offered op enters the pending queue. *)
        Rdp_link.send !lr req dst;
        Queue.add (Libos.Api.now api) pending);
    Libos.Api.delay api interarrival
  done;
  sender_done := true

(* {1 Driver and stats} *)

type stats = {
  offered : int;
  completed : int;
  shed : int;
  lost : int;
  late : int;
  retried : int;
  rdp_retransmits : int;
  rdp_gave_up : int;
  unaccounted : int;
  latency : Obs.Metrics.summary;
  duration : Sim.Engine.time;
  goodput_kops : float;
  baseline_kops : float;
  crowd_kops : float;
  recovery_kops : float;
  recovered : bool;
  recovery_window : int option;
}

let kops done_ cycles =
  if Int64.compare cycles 0L <= 0 then 0.
  else float_of_int done_ /. Sim.Cycles.to_sec cycles /. 1e3

let run ?(config = default) (h : Harness.t) ~server_threads =
  let st = make_state config ~on_done:(fun () -> Harness.stop h) in
  Sim.Engine.spawn h.engine ~name:"loadgen-server"
    (Memcached.server ~rdp:config.rdp (Harness.api h) ~server_threads);
  Sim.Engine.spawn h.engine ~name:"loadgen" (fun () ->
      (* Let the server bind before offering load. *)
      Sim.Engine.delay (Sim.Cycles.of_us 50.);
      st.start <- Sim.Engine.now h.engine;
      let cdf = zipf_cdf ~n:config.key_space ~s:config.zipf in
      st.live <- config.connections;
      for c = 0 to config.connections - 1 do
        let rng =
          Sim.Rng.create ~seed:(Int64.add config.seed (Int64.of_int c))
        in
        h.peer.Libos.Api.spawn
          ~name:(Printf.sprintf "loadgen-conn%d" c)
          (fun api ->
            match config.mode with
            | Closed { think } -> closed_client api st ~rng ~cdf ~think ()
            | Open { interarrival } ->
                open_client api st ~rng ~cdf ~interarrival
                  ~budget:(max 1 (config.ops / config.connections))
                  ())
      done);
  Harness.run h ~until:(Sim.Cycles.of_sec 60.);
  let finish = Sim.Engine.now h.engine in
  let duration = Int64.sub finish st.start in
  let baseline_cycles =
    if st.crowd_start = 0L then duration else Int64.sub st.crowd_start st.start
  in
  let crowd_cycles =
    if st.crowd_start = 0L then 0L
    else Int64.sub (if st.crowd_end = 0L then finish else st.crowd_end) st.crowd_start
  in
  let recovery_cycles =
    if st.crowd_end = 0L then 0L else Int64.sub finish st.crowd_end
  in
  let baseline_kops = kops st.baseline_done baseline_cycles in
  let window_kops n = kops n recovery_window in
  let recovery_window_hit =
    Hashtbl.fold
      (fun idx n best ->
        if window_kops !n >= 0.95 *. baseline_kops then
          match best with Some b when b <= idx -> best | _ -> Some idx
        else best)
      st.recovery_windows None
  in
  {
    offered = st.base_offered + st.crowd_offered;
    completed = st.completed;
    shed = st.shed;
    lost = st.lost;
    late = st.late;
    retried = st.retried;
    rdp_retransmits = st.rdp_retransmits;
    rdp_gave_up = st.rdp_gave_up;
    unaccounted =
      Harness.unaccounted h ~missing:(st.lost - st.late - st.rdp_gave_up);
    latency = Obs.Metrics.summary st.hist;
    duration;
    goodput_kops = kops st.completed duration;
    baseline_kops;
    crowd_kops = kops st.crowd_done crowd_cycles;
    recovery_kops = kops st.recovery_done recovery_cycles;
    recovered = (st.crowd_start = 0L || recovery_window_hit <> None);
    recovery_window = recovery_window_hit;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "offered=%d completed=%d shed=%d lost=%d late=%d retried=%d@ latency: %a@ \
     goodput=%.1f kops/s (baseline=%.1f crowd=%.1f recovery=%.1f) recovered=%b%s"
    s.offered s.completed s.shed s.lost s.late s.retried Obs.Metrics.pp_summary
    s.latency s.goodput_kops s.baseline_kops s.crowd_kops s.recovery_kops
    s.recovered
    (match s.recovery_window with
    | Some w -> Printf.sprintf " (window %d)" w
    | None -> "");
  if s.rdp_retransmits > 0 || s.rdp_gave_up > 0 then
    Format.fprintf ppf "@ rdp: retransmits=%d give-ups=%d" s.rdp_retransmits
      s.rdp_gave_up
