(* The workloads.  Each one builds fresh harnesses, generates its
   inputs from the seed, drives the system through its public surfaces
   with the benchmark's own clients, and records every op in a
   {!Ledger}.  A run is split in legs, one harness each; kv_open and
   udp_bulk run one leg per offered rate of their SLO grid, after the
   reference leg the metrics come from.

   The inputs a seed changes: think times, arrival times, Zipf keys,
   payload and block sizes, stream phases and payload bytes.  The
   program under test is the same for every seed. *)

let cycles_of_us us = int_of_float (us *. 2400.)

let host_now = Unix.gettimeofday

type leg = {
  label : string;
  ledger : Ledger.t;
  harness : Apps.Harness.t option;
      (** kept for the leg the metrics come from; dropped for the rest *)
  tracer : Tracer.t option;
  problems : string list;  (** why the run is not correct, if it is not *)
  setup_s : float;  (** host: harness, boot, server start, until first due *)
  timed_s : float;  (** host: the timed region *)
  words : float;  (** minor words allocated in the timed region *)
  gc_minor : int;  (** minor collections in the timed region *)
  gc_major : int;
  sim_cycles : int;  (** simulated cycles of the timed region *)
  live_words : int;  (** host heap still live when the timed region ends *)
  offered_kops : float;  (** offered rate of a grid leg; 0 for closed loops *)
}

(* A run that is still going after this much host time ends as a
   failed run, with its outstanding ops failed. *)
let host_cap_s = 60.

(* The benchmark advances the engine in slices so it can check the host
   clock and the ledger between them. *)
let slice = Int64.of_int (cycles_of_us 500.)

let make_harness ?(config = Rakis.Config.default) ?nic_queues () =
  match
    Apps.Harness.make Libos.Env.Rakis_sgx ~rakis_config:config ?nic_queues ()
  with
  | Ok h -> h
  | Error e -> failwith ("harness: " ^ e)

(* Checks that fail the run rather than an op: the honest host must
   never trip a Table 2 check, and every run must end on purpose. *)
let problems ~label h ended =
  let rt = Counters.runtime h in
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  if not (Rakis.Runtime.invariant_holds rt) then
    add "%s: runtime invariant broken" label;
  let cf = Rakis.Runtime.total_ring_check_failures rt in
  if cf <> 0 then add "%s: %d ring-check failures under an honest host" label cf;
  let rej = Counters.umem_rejects h in
  if rej <> 0 then add "%s: %d UMem rejects under an honest host" label rej;
  (match ended with
  | `Done -> ()
  | `Horizon -> add "%s: ended at the simulated horizon" label
  | `Host_cap -> add "%s: hit the host-time cap" label);
  List.rev !bad

(* Run one leg: [spawn] starts the server and clients; the engine runs
   until [first_due] (the end of set-up), then the timed region runs
   until [finished] holds (by default: every op resolved), [horizon]
   passes or the host cap is hit.  Whatever makes [finished] true also
   stops the engine, so the run ends on purpose rather than at the
   horizon. *)
let run_leg ~label ?(offered_kops = 0.) ~ledger ?finished ~make ~spawn
    ~first_due ~horizon () =
  let finished =
    match finished with
    | Some f -> f
    | None -> fun () -> Ledger.pending ledger = 0
  in
  (* Earlier legs' machines are garbage by now; collect them outside
     any measured region so set-up is not charged for it. *)
  Gc.compact ();
  let t0 = host_now () in
  let h = make () in
  let engine = h.Apps.Harness.engine in
  let tracer = spawn h in
  Sim.Engine.run ~until:(Int64.of_int first_due) engine;
  let t1 = host_now () in
  ledger.Ledger.on_all_resolved <- (fun () -> Sim.Engine.stop engine);
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let sim0 = Sim.Engine.now engine in
  let horizon = Int64.of_int horizon in
  let rec go () =
    if finished () then `Done
    else
      let now = Sim.Engine.now engine in
      if Int64.compare now horizon >= 0 then `Horizon
      else if host_now () -. t1 > host_cap_s then `Host_cap
      else begin
        Sim.Engine.run ~until:(Int64.min (Int64.add now slice) horizon) engine;
        if Sim.Engine.pending engine = 0 && not (finished ()) then `Horizon
        else go ()
      end
  in
  let ended = go () in
  ledger.Ledger.on_all_resolved <- ignore;
  let w1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  let t2 = host_now () in
  let sim1 = Sim.Engine.now engine in
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  if ended <> `Done then Ledger.fail_pending ledger ~now:(Int64.to_int sim1);
  {
    label;
    ledger;
    harness = Some h;
    tracer;
    problems = problems ~label h ended;
    setup_s = t1 -. t0;
    timed_s = t2 -. t1;
    words = w1 -. w0;
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    sim_cycles = Int64.to_int (Int64.sub sim1 sim0);
    live_words;
    offered_kops;
  }

(* The enclave API a workload drives: wrapped by a tracer in the
   traced run. *)
let enclave_api (h : Apps.Harness.t) tracer =
  let api = Apps.Harness.api h in
  match tracer with None -> api | Some tr -> Tracer.api tr api

let new_tracer traced (h : Apps.Harness.t) resolve =
  if traced then Some (Tracer.create h.Apps.Harness.engine ~resolve) else None

let server_ip = Packet.Addr.Ip.of_repr "10.0.0.1"

let stamp b off v =
  for k = 0 to 7 do
    Bytes.set b (off + k) (Char.chr ((v lsr (8 * k)) land 0xff))
  done

let read_stamp b off =
  let v = ref 0 in
  for k = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b (off + k))
  done;
  !v

let rng seed salt = Sim.Rng.create ~seed:(Int64.of_int ((seed * 1_000_003) + salt))

let random_block rng n =
  let b = Bytes.create n in
  Sim.Rng.fill_bytes rng b;
  b

(* {1 echo_small}

   Closed-loop 64-B UDP echo, 4 flows, 1 queue.  A round trip is due
   when its flow finished the previous one plus a think time drawn
   from the seed, and fails if its echo is not back 2 ms later. *)

let echo_flows = 4

let echo_ops_per_flow = 4000

let echo_port = 7

(* Payload sizes are drawn from the seed, uniform over the 32 sizes
   48..79 B (64 B on average).  Latency grows with size, so an even
   number of sizes puts the median on a class boundary, where the
   seed's draw moves it. *)
let echo_min_payload = 48

let echo_max_payload = 79

let echo_deadline = cycles_of_us 2000.

let echo_start = cycles_of_us 50.

let echo_small ~seed ~traced =
  let n = echo_flows * echo_ops_per_flow in
  let ledger = Ledger.create ~traced ~n ~deadline:echo_deadline () in
  let think =
    Array.init echo_flows (fun f ->
        let r = rng seed (100 + f) in
        Array.init echo_ops_per_flow (fun _ -> Sim.Rng.int r 4800))
  in
  let payloads =
    Array.init echo_flows (fun f ->
        let r = rng seed (200 + f) in
        let base = random_block r echo_max_payload in
        Array.init echo_ops_per_flow (fun j ->
            let b =
              Bytes.sub base 0
                (echo_min_payload
                + Sim.Rng.int r (echo_max_payload - echo_min_payload + 1))
            in
            stamp b 0 ((f * echo_ops_per_flow) + j);
            b))
  in
  let current = Array.make echo_flows (-1) in
  let spawn h =
    let ports =
      Array.of_list
        (Apps.Shards.spread_ports h ~n:echo_flows ~dst:(server_ip, echo_port)
           ~base:40000)
    in
    let flow_of_port p =
      let r = ref (-1) in
      Array.iteri (fun f q -> if q = p then r := f) ports;
      !r
    in
    let tracer =
      new_tracer traced h (fun _ addr _ ->
          match addr with
          | Some (_, p) ->
              let f = flow_of_port p in
              if f >= 0 then current.(f) else -1
          | None -> -1)
    in
    let api = enclave_api h tracer in
    let engine = h.Apps.Harness.engine in
    Sim.Engine.spawn engine ~name:"echo-server" (fun () ->
        let fd = api.Libos.Api.udp_socket () in
        (match api.Libos.Api.bind fd (server_ip, echo_port) with
        | Ok () -> ()
        | Error e -> failwith (Format.asprintf "echo bind: %a" Abi.Errno.pp e));
        let rec loop () =
          match api.Libos.Api.recvfrom fd 65536 with
          | Ok (payload, src) ->
              ignore (api.Libos.Api.sendto fd payload src);
              loop ()
          | Error _ -> ()
        in
        loop ());
    let peer = h.Apps.Harness.peer in
    let client_ip = Hostos.Kernel.client_ip h.Apps.Harness.kernel in
    for f = 0 to echo_flows - 1 do
      Sim.Engine.spawn engine ~name:"echo-client" (fun () ->
          let fd = peer.Libos.Api.udp_socket () in
          (match peer.Libos.Api.bind fd (client_ip, ports.(f)) with
          | Ok () -> ()
          | Error e ->
              failwith (Format.asprintf "echo client bind: %a" Abi.Errno.pp e));
          let now () = Int64.to_int (Libos.Api.now peer) in
          let prev = ref echo_start in
          for j = 0 to echo_ops_per_flow - 1 do
            let i = (f * echo_ops_per_flow) + j in
            let due = !prev + think.(f).(j) in
            Ledger.set_due ledger i due;
            if due > now () then Sim.Engine.delay (Int64.of_int (due - now ()));
            Ledger.start ledger i;
            current.(f) <- i;
            let payload = payloads.(f).(j) in
            let deadline = due + echo_deadline in
            ignore (peer.Libos.Api.sendto fd payload (server_ip, echo_port));
            let rec await () =
              let left = deadline - now () in
              if left <= 0 then Ledger.fail ledger i ~now:(now ())
              else
                match
                  peer.Libos.Api.poll [ (fd, [ `In ]) ]
                    ~timeout:(Some (Int64.of_int left))
                with
                | Ok (_ :: _) -> (
                    match peer.Libos.Api.recvfrom fd 65536 with
                    | Ok (reply, _)
                      when Bytes.length reply >= 8 && read_stamp reply 0 = i ->
                        if Bytes.equal reply payload then
                          Ledger.complete ledger i ~now:(now ())
                            ~bytes:(Bytes.length payload)
                        else Ledger.fail ledger i ~now:(now ())
                    | Ok _ | Error _ -> await ())
                | Ok [] | Error _ -> await ()
            in
            await ();
            prev := now ()
          done)
    done;
    tracer
  in
  [
    run_leg ~label:"echo_small" ~ledger ~make:make_harness ~spawn
      ~first_due:echo_start
      ~horizon:(cycles_of_us 30_000_000.)
      ();
  ]

(* {1 kv_open}

   Apps.Memcached.server on the BENCH_kv shape (2 queues, 4 server
   threads, 4 XSKs, 4 NIC queues).  32 client connections, each with
   its own Poisson arrival schedule, one request in flight per
   connection: a request due while its connection is busy waits, and
   its latency still counts from when it was due.  A request fails if
   no reply is back 1 ms after it was due (it is not sent at all when
   that time has already passed); the connection then re-opens its
   socket so a late reply cannot be taken for the next one's.

   Every leg runs one rate of the grid on a fresh harness.  The grid is
   climbed until a rate misses the SLO; latencies are reported at the
   reference rate. *)

let kv_connections = 32

let kv_threads = 4

let kv_deadline = cycles_of_us 1000.

let kv_value_size = 100

let kv_start = cycles_of_us 50.

let kv_grid = [ 50.; 100.; 150.; 200.; 250.; 300.; 400. ]

let kv_reference = 100.

let kv_ops_per_leg = 3200

let kv_ops_reference = 12800

let slo_p99 = cycles_of_us 250.

let slo_fail_frac = 0.001

let kv_config =
  {
    Rakis.Config.default with
    num_queues = 2;
    num_xsks = kv_threads;
  }

type kv_op = {
  key : int;
  set : bool;
  mutable reply : string;
  mutable sent : int;  (** simulated cycle the request went out *)
}

(* Zipf(s) over [n] keys by inverse CDF. *)
let zipf_cdf n s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  Array.map (fun x -> x /. !acc) cdf

let zipf_sample cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let key_name k = Printf.sprintf "key-%06d" k

(* A SET's value names its op and key, so a GET reply says which write
   it returns. *)
let kv_value ~filler i k =
  let head = Printf.sprintf "%08d:%s:" i (key_name k) in
  head ^ String.sub filler 0 (kv_value_size - String.length head)

let parse_value v =
  match String.split_on_char ':' v with
  | w :: k :: _ -> (
      match int_of_string_opt w with Some w -> Some (w, k) | None -> None)
  | _ -> None

(* Check every completed op's reply against a shadow of the writes.  A
   GET may return any SET of its key that was sent before the GET's
   reply came back, unless another SET of that key began after the
   first was acknowledged and was itself acknowledged before the GET
   was sent.  A miss is right only if no SET of the key was
   acknowledged before the GET was sent. *)
let kv_verify ~filler (ledger : Ledger.t) (ops : kv_op array) =
  let n = Array.length ops in
  let sets = Array.make Apps.Memcached.key_space [] in
  for i = n - 1 downto 0 do
    if ops.(i).set && ops.(i).sent >= 0 then
      sets.(ops.(i).key) <- i :: sets.(ops.(i).key)
  done;
  let acked w =
    if ledger.Ledger.fate.(w) = Ledger.Ok then ledger.Ledger.fin.(w) else max_int
  in
  let superseded w ~get_sent key =
    let aw = acked w in
    aw < max_int
    && List.exists (fun w' -> ops.(w').sent > aw && acked w' < get_sent) sets.(key)
  in
  for i = 0 to n - 1 do
    if ledger.Ledger.fate.(i) = Ledger.Ok then begin
      let op = ops.(i) in
      let r = op.reply in
      let good =
        if op.set then r = "O"
        else if r = "N" then
          List.for_all (fun w -> acked w >= op.sent) sets.(op.key)
        else if String.length r > 1 && r.[0] = 'V' then
          let v = String.sub r 1 (String.length r - 1) in
          match parse_value v with
          | Some (w, _)
            when w >= 0 && w < n
                 && ops.(w).set
                 && ops.(w).key = op.key
                 && ops.(w).sent >= 0
                 && ops.(w).sent < ledger.Ledger.fin.(i)
                 && v = kv_value ~filler w op.key ->
              not (superseded w ~get_sent:op.sent op.key)
          | _ -> false
        else false
      in
      if not good then Ledger.refute ledger i
    end
  done

type kv_mode =
  | Open of float  (** offered kops, Poisson arrivals per connection *)
  | Closed of int  (** connections, each due when its last op ended *)

let kv_leg ~seed ~traced ~mode ~n ~filler =
  let conns =
    match mode with Open _ -> kv_connections | Closed c -> c
  in
  let ledger = Ledger.create ~traced ~n ~deadline:kv_deadline () in
  let per_conn = n / conns in
  let cdf = zipf_cdf Apps.Memcached.key_space 0.99 in
  let salt =
    match mode with Open r -> int_of_float r | Closed c -> 100_000 + c
  in
  let ops =
    let r = rng seed (1000 + salt) in
    Array.init n (fun _ ->
        let key = zipf_sample cdf (Sim.Rng.float r 1.0) in
        let set = Sim.Rng.int r 10 = 0 in
        { key; set; reply = ""; sent = -1 })
  in
  (* Open loop: Poisson arrivals per connection, mean gap = connections
     / rate.  Closed loop: a think time after the previous op ends. *)
  let think = Array.make n 0 in
  (match mode with
  | Open rate_kops ->
      let mean_gap = float_of_int conns *. 2.4e6 /. rate_kops in
      for c = 0 to conns - 1 do
        let r = rng seed (2000 + (c * 1000) + salt) in
        let t = ref (float_of_int kv_start) in
        for j = 0 to per_conn - 1 do
          let u = Sim.Rng.float r 1.0 in
          t := !t +. (-.mean_gap *. log (1. -. u));
          Ledger.set_due ledger ((j * conns) + c) (int_of_float !t)
        done
      done
  | Closed _ ->
      let r = rng seed (3000 + salt) in
      Array.iteri (fun i _ -> think.(i) <- Sim.Rng.int r 4800) think;
      for c = 0 to conns - 1 do
        Ledger.set_due ledger c (kv_start + think.(c))
      done);
  let first_due = Array.fold_left min max_int ledger.Ledger.due in
  let last_due = Array.fold_left max 0 ledger.Ledger.due in
  (* Explicitly bound client ports, so the tracer can map a request's
     source address back to its connection. *)
  let port_conn = Hashtbl.create 64 in
  let current = Array.make conns (-1) in
  let next_port = ref 0 in
  let fresh_port c =
    let p = 20000 + (!next_port mod 30000) in
    incr next_port;
    Hashtbl.replace port_conn p c;
    p
  in
  let spawn h =
    let tracer =
      new_tracer traced h (fun _ addr _ ->
          match addr with
          | Some (_, p) -> (
              match Hashtbl.find_opt port_conn p with
              | Some c -> current.(c)
              | None -> -1)
          | None -> -1)
    in
    let api = enclave_api h tracer in
    let engine = h.Apps.Harness.engine in
    Sim.Engine.spawn engine ~name:"memcached"
      (Apps.Memcached.server api ~server_threads:kv_threads);
    let peer = h.Apps.Harness.peer in
    let client_ip = Hostos.Kernel.client_ip h.Apps.Harness.kernel in
    let dst = (server_ip, Apps.Memcached.port) in
    for c = 0 to conns - 1 do
      Sim.Engine.spawn engine ~name:"kv-conn" (fun () ->
          let now () = Int64.to_int (Libos.Api.now peer) in
          let open_socket () =
            let fd = peer.Libos.Api.udp_socket () in
            (match peer.Libos.Api.bind fd (client_ip, fresh_port c) with
            | Ok () -> ()
            | Error e ->
                failwith (Format.asprintf "kv client bind: %a" Abi.Errno.pp e));
            fd
          in
          let fd = ref (open_socket ()) in
          for j = 0 to per_conn - 1 do
            let i = (j * conns) + c in
            (match mode with
            | Closed _ when j > 0 ->
                Ledger.set_due ledger i (now () + think.(i))
            | Closed _ | Open _ -> ());
            let due = ledger.Ledger.due.(i) in
            let deadline = due + kv_deadline in
            if due > now () then Sim.Engine.delay (Int64.of_int (due - now ()));
            Ledger.start ledger i;
            if now () >= deadline then Ledger.fail ledger i ~now:(now ())
            else begin
              let op = ops.(i) in
              let req =
                if op.set then
                  Apps.Memcached.set_request (key_name op.key)
                    (kv_value ~filler i op.key)
                else Apps.Memcached.get_request (key_name op.key)
              in
              current.(c) <- i;
              op.sent <- now ();
              match peer.Libos.Api.sendto !fd req dst with
              | Error _ -> Ledger.fail ledger i ~now:(now ())
              | Ok _ -> (
                  let left = deadline - now () in
                  let got =
                    if left <= 0 then None
                    else
                      match
                        peer.Libos.Api.poll [ (!fd, [ `In ]) ]
                          ~timeout:(Some (Int64.of_int left))
                      with
                      | Ok (_ :: _) -> (
                          match peer.Libos.Api.recvfrom !fd 65536 with
                          | Ok (reply, _) -> Some reply
                          | Error _ -> None)
                      | Ok [] | Error _ -> None
                  in
                  match got with
                  | Some reply ->
                      op.reply <- Bytes.to_string reply;
                      let bytes =
                        if op.set then kv_value_size
                        else max 0 (Bytes.length reply - 1)
                      in
                      Ledger.complete ledger i ~now:(now ()) ~bytes
                  | None ->
                      Ledger.fail ledger i ~now:(now ());
                      ignore (peer.Libos.Api.close !fd);
                      fd := open_socket ())
            end
          done)
    done;
    tracer
  in
  let label, offered_kops, horizon =
    match mode with
    | Open r ->
        ( Printf.sprintf "kv_open@%gkops" r,
          r,
          last_due + kv_deadline + cycles_of_us 1000. )
    | Closed c ->
        ( Printf.sprintf "kv_closed@%dconns" c,
          0.,
          last_due + ((per_conn + 1) * (kv_deadline + 4800)) )
  in
  let leg =
    run_leg ~label ~offered_kops ~ledger
      ~make:(fun () -> make_harness ~config:kv_config ~nic_queues:4 ())
      ~spawn ~first_due ~horizon ()
  in
  kv_verify ~filler ledger ops;
  leg

let meets_slo (leg : leg) =
  let s = Ledger.samples leg.ledger in
  Ledger.percentile s 0.99 <= slo_p99
  && float_of_int (Ledger.failed leg.ledger)
     <= slo_fail_frac *. float_of_int (Ledger.attempted leg.ledger)

let kv_filler seed =
  String.map
    (fun c -> Char.chr (97 + (Char.code c mod 26)))
    (Bytes.to_string (random_block (rng seed 3) kv_value_size))

let release l = { l with harness = None; tracer = None }

(* The reference leg comes first (it alone is traced), then the rest of
   the grid, climbed until a point misses the SLO.  Only the reference
   leg keeps its machine. *)
let climb ~reference ~grid ~leg =
  let ref_x, ref_leg = reference in
  let rec go = function
    | [] -> []
    | x :: rest ->
        let l = if x = ref_x then ref_leg else release (leg x) in
        if meets_slo l then l :: go rest else [ l ]
  in
  ref_leg :: List.filter (fun l -> l != ref_leg) (go grid)

let kv_open ~seed ~traced =
  let filler = kv_filler seed in
  let leg ~traced r n = kv_leg ~seed ~traced ~mode:(Open r) ~n ~filler in
  climb
    ~reference:(kv_reference, leg ~traced kv_reference kv_ops_reference)
    ~grid:kv_grid
    ~leg:(fun r -> leg ~traced:false r kv_ops_per_leg)

(* {1 kv_closed}

   The same server, shape and traffic as kv_open, offered by 32
   closed-loop connections: each connection's next request is due a
   think time (from the seed) after its previous one ended. *)

let kv_closed_ops = 51200

let kv_closed ~seed ~traced =
  [
    kv_leg ~seed ~traced ~mode:(Closed kv_connections) ~n:kv_closed_ops
      ~filler:(kv_filler seed);
  ]

(* {1 udp_bulk}

   iperf-style: 4 native streams of 1460-B datagrams, offered together
   at the 25 Gbps link rate, into an enclave receiver on 1 queue.  Each
   stream starts at a phase and jitters each gap within +-1/16, both
   drawn from the seed.  A datagram the receiver verifies (its op id
   stamp, and the Internet checksum of the rest against the seed's
   bytes) completes its op; one a layer dropped and counted is shed;
   one lost without a count fails. *)

let bulk_streams = 4

let bulk_per_stream = 8000

let bulk_size = 1460

let bulk_port = 5201

let bulk_start = cycles_of_us 50.

let bulk_deadline = cycles_of_us 5000.

(* Per-stream gap for an aggregate offered load of [frac] of the link. *)
let bulk_gap frac =
  int_of_float
    (float_of_int (bulk_size + Packet.Frame.frame_overhead)
    *. !Sgx.Params.live_wire_cycles_per_byte
    *. float_of_int bulk_streams /. frac)

let bulk_kops frac = float_of_int bulk_streams *. 2.4e6 /. float_of_int (bulk_gap frac)

(* The SLO grid, as shares of the link rate; the reference is the link
   rate itself. *)
let bulk_grid = [ 0.2; 0.3; 0.4; 0.45; 0.5; 0.55; 0.6; 0.7; 0.85; 1.0 ]

let bulk_grid_per_stream = 1000

(* Every counted death of a frame in the simulated machine. *)
let accounted_drops (h : Apps.Harness.t) =
  let st = Sim.Engine.stats h.Apps.Harness.engine in
  Rakis.Runtime.total_accounted_drops (Counters.runtime h)
  + Counters.engine_stat h ~prefix:"nic." ~suffix:".drops"
  + Sim.Stats.get st "udp.buffer_drops"
  + Sim.Stats.get st "udp.no_socket_drops"

let bulk_leg ~seed ~traced ~frac ~per_stream =
  let n = bulk_streams * per_stream in
  let ledger = Ledger.create ~traced ~n ~deadline:bulk_deadline () in
  let gap = bulk_gap frac in
  let salt = int_of_float (frac *. 1000.) in
  for s = 0 to bulk_streams - 1 do
    let r = rng seed (300 + (s * 10_000) + salt) in
    let t = ref (bulk_start + Sim.Rng.int r gap) in
    for j = 0 to per_stream - 1 do
      Ledger.set_due ledger ((s * per_stream) + j) !t;
      t := !t + gap - (gap / 16) + Sim.Rng.int r (gap / 8)
    done
  done;
  let last_due = Array.fold_left max 0 ledger.Ledger.due in
  let base = random_block (rng seed 4) bulk_size in
  let base_sum = Packet.Checksum.compute base 8 (bulk_size - 8) in
  let window_over = ref false in
  let spawn h =
    let tracer =
      new_tracer traced h (fun _ _ payload ->
          match payload with
          | Some b when Bytes.length b >= 8 ->
              let i = read_stamp b 0 in
              if i >= 0 && i < n then i else -1
          | _ -> -1)
    in
    let api = enclave_api h tracer in
    let engine = h.Apps.Harness.engine in
    Sim.Engine.spawn engine ~name:"bulk-receiver" (fun () ->
        let fd = api.Libos.Api.udp_socket () in
        (match api.Libos.Api.bind fd (server_ip, bulk_port) with
        | Ok () -> ()
        | Error e -> failwith (Format.asprintf "bulk bind: %a" Abi.Errno.pp e));
        let rec loop () =
          match api.Libos.Api.recvfrom fd 65536 with
          | Ok (payload, _) ->
              let now = Int64.to_int (Libos.Api.now api) in
              let i =
                if Bytes.length payload = bulk_size then read_stamp payload 0
                else -1
              in
              (if i >= 0 && i < n then
                 if Packet.Checksum.compute payload 8 (bulk_size - 8) = base_sum
                 then
                   Ledger.complete ledger i ~now ~bytes:bulk_size
                 else Ledger.fail ledger i ~now);
              loop ()
          | Error _ -> ()
        in
        loop ());
    let peer = h.Apps.Harness.peer in
    let client_ip = Hostos.Kernel.client_ip h.Apps.Harness.kernel in
    let ports =
      Array.of_list
        (Apps.Shards.spread_ports h ~n:bulk_streams ~dst:(server_ip, bulk_port)
           ~base:41000)
    in
    for s = 0 to bulk_streams - 1 do
      Sim.Engine.spawn engine ~name:"bulk-stream" (fun () ->
          let fd = peer.Libos.Api.udp_socket () in
          (match peer.Libos.Api.bind fd (client_ip, ports.(s)) with
          | Ok () -> ()
          | Error e ->
              failwith (Format.asprintf "bulk stream bind: %a" Abi.Errno.pp e));
          let payload = Bytes.copy base in
          for j = 0 to per_stream - 1 do
            let i = (s * per_stream) + j in
            let due = ledger.Ledger.due.(i) in
            let now = Int64.to_int (Libos.Api.now peer) in
            if due > now then Sim.Engine.delay (Int64.of_int (due - now));
            Ledger.start ledger i;
            stamp payload 0 i;
            match peer.Libos.Api.sendto fd payload (server_ip, bulk_port) with
            | Ok _ -> ()
            | Error _ ->
                Ledger.shed ledger i ~now:(Int64.to_int (Libos.Api.now peer))
          done)
    done;
    (* The run ends on purpose: once the last datagram had its deadline
       to arrive, the remaining ones are classified from the counters. *)
    Sim.Engine.at engine
      (Int64.of_int (last_due + bulk_deadline))
      (fun () ->
        window_over := true;
        Sim.Engine.stop engine);
    tracer
  in
  let leg =
    run_leg
      ~label:(Printf.sprintf "udp_bulk@%.0fkops" (bulk_kops frac))
      ~offered_kops:(bulk_kops frac) ~ledger
      ~finished:(fun () -> !window_over || Ledger.pending ledger = 0)
      ~make:make_harness ~spawn
      ~first_due:bulk_start
      ~horizon:(last_due + bulk_deadline + cycles_of_us 1000.)
      ()
  in
  (* Undelivered datagrams the drop counters cover are shed; any
     remainder was lost silently and fails. *)
  let h = Option.get leg.harness in
  let accounted = ref (accounted_drops h) in
  let now = Int64.to_int (Sim.Engine.now h.Apps.Harness.engine) in
  Array.iteri
    (fun i f ->
      if f = Ledger.Pending then
        if !accounted > 0 then begin
          decr accounted;
          Ledger.shed ledger i ~now
        end
        else Ledger.fail ledger i ~now)
    ledger.Ledger.fate;
  leg

let udp_bulk ~seed ~traced =
  climb
    ~reference:(1.0, bulk_leg ~seed ~traced ~frac:1.0 ~per_stream:bulk_per_stream)
    ~grid:bulk_grid
    ~leg:(fun frac ->
      bulk_leg ~seed ~traced:false ~frac ~per_stream:bulk_grid_per_stream)

(* {1 uring_io}

   One enclave thread writes a 4.5 MiB file in 4 KiB blocks and reads
   it back, four rounds over the same file; every block read is checked
   against the block written once the run is over.  A
   second enclave thread meanwhile streams 16 KiB chunks over TCP to a
   native receiver that checks the byte count and content.  Each call
   is one op, due after a think time drawn from the seed; a call that
   returns more than 2 ms after it was due fails. *)

let uring_rounds = 4

let uring_file_blocks = 1152

let uring_blocks = uring_rounds * uring_file_blocks

(* File blocks are 4 KiB on average: each one's size is drawn from the
   seed in [3.5 KiB, 4.5 KiB]. *)
let uring_block = 4096

let uring_block_jitter = 512

let uring_chunks = 1024

let uring_chunk = 16384

let uring_port = 5202

let uring_start = cycles_of_us 50.

let uring_deadline = cycles_of_us 2000.

let uring_slot = uring_block + uring_block_jitter

(* The buffer file reads land in, one slot per read, checked after the
   run; made once per process, outside every measured region. *)
let readback = lazy (Bytes.create (uring_blocks * uring_slot))

(* The stream the sender sends and the buffer the receiver fills: made
   once per process and seed, outside every measured region. *)
let stream_buffers =
  let cache = Hashtbl.create 1 in
  fun seed ->
    match Hashtbl.find_opt cache seed with
    | Some b -> b
    | None ->
        let len = uring_chunks * uring_chunk in
        let chunk_base = random_block (rng seed 7) uring_chunk in
        let expected = Bytes.create len in
        for k = 0 to uring_chunks - 1 do
          Bytes.blit chunk_base 0 expected (k * uring_chunk) uring_chunk;
          stamp expected (k * uring_chunk) k
        done;
        let b = (expected, Bytes.create len) in
        Hashtbl.replace cache seed b;
        b

let uring_io ~seed ~traced =
  let n = (2 * uring_blocks) + uring_chunks in
  let ledger = Ledger.create ~traced ~n ~deadline:uring_deadline () in
  let think =
    let r = rng seed 500 in
    Array.init n (fun _ -> Sim.Rng.int r 2400)
  in
  let block_base = random_block (rng seed 6) uring_slot in
  let readback = Lazy.force readback in
  Bytes.fill readback 0 (Bytes.length readback) '\000';
  let sizes =
    let r = rng seed 8 in
    Array.init uring_blocks (fun _ ->
        uring_block - uring_block_jitter
        + Sim.Rng.int r ((2 * uring_block_jitter) + 1))
  in
  let stream_len = uring_chunks * uring_chunk in
  let expected, got = stream_buffers seed in
  Bytes.fill got 0 stream_len '\000';
  let received = ref 0 in
  let file_current = ref (-1) and tcp_current = ref (-1) in
  let receiver_done = ref false in
  let spawn h =
    let tracer =
      new_tracer traced h (fun call _ _ ->
          if call = "send" then !tcp_current else !file_current)
    in
    let api = enclave_api h tracer in
    let engine = h.Apps.Harness.engine in
    let peer = h.Apps.Harness.peer in
    let client_ip = Hostos.Kernel.client_ip h.Apps.Harness.kernel in
    Sim.Engine.spawn engine ~name:"uring-receiver" (fun () ->
        let l = peer.Libos.Api.tcp_socket () in
        ignore (peer.Libos.Api.bind l (client_ip, uring_port));
        ignore (peer.Libos.Api.listen l);
        (match peer.Libos.Api.accept l with
        | Error _ -> ()
        | Ok c ->
            let buf = Bytes.create 65536 in
            let rec drain () =
              match peer.Libos.Api.recv c buf 0 (Bytes.length buf) with
              | Ok 0 | Error _ -> ()
              | Ok k ->
                  let fit = max 0 (min k (stream_len - !received)) in
                  Bytes.blit buf 0 got !received fit;
                  received := !received + k;
                  drain ()
            in
            drain ());
        receiver_done := true;
        Sim.Engine.stop engine);
    let must what = function
      | Ok v -> v
      | Error e -> failwith (Format.asprintf "%s: %a" what Abi.Errno.pp e)
    in
    (* Op [i] on a thread whose current op is [cur]: think, then call. *)
    let op api cur i f =
      let now = Int64.to_int (Libos.Api.now api) in
      Ledger.set_due ledger i (now + think.(i));
      Sim.Engine.delay (Int64.of_int think.(i));
      Ledger.start ledger i;
      cur := i;
      f ()
    in
    let finish api i ok ~bytes =
      let now = Int64.to_int (Libos.Api.now api) in
      if ok then Ledger.complete ledger i ~now ~bytes else Ledger.fail ledger i ~now
    in
    (* The TCP sender is a second enclave thread, with its own io_uring
       FM, running beside the file thread. *)
    api.Libos.Api.spawn ~name:"uring-tcp" (fun api ->
        Sim.Engine.delay (Int64.of_int uring_start);
        let s = api.Libos.Api.tcp_socket () in
        must "connect" (api.Libos.Api.connect s (client_ip, uring_port));
        for k = 0 to uring_chunks - 1 do
          let i = (2 * uring_blocks) + k in
          op api tcp_current i (fun () ->
              let r = api.Libos.Api.send s expected (k * uring_chunk) uring_chunk in
              finish api i (r = Ok uring_chunk) ~bytes:uring_chunk)
        done;
        tcp_current := -1;
        ignore (api.Libos.Api.close s));
    Sim.Engine.spawn engine ~name:"uring-file" (fun () ->
        Sim.Engine.delay (Int64.of_int uring_start);
        let fd =
          must "open"
            (api.Libos.Api.openf ~create:true ~trunc:true "/bench/uring.dat")
        in
        let block = Bytes.copy block_base in
        for round = 0 to uring_rounds - 1 do
          ignore (must "lseek" (api.Libos.Api.lseek fd 0));
          for k = 0 to uring_file_blocks - 1 do
            let b = (round * uring_file_blocks) + k in
            op api file_current b (fun () ->
                stamp block 0 b;
                let r = api.Libos.Api.write fd block 0 sizes.(b) in
                finish api b (r = Ok sizes.(b)) ~bytes:sizes.(b))
          done;
          ignore (must "lseek" (api.Libos.Api.lseek fd 0));
          for k = 0 to uring_file_blocks - 1 do
            let b = (round * uring_file_blocks) + k in
            let i = uring_blocks + b in
            op api file_current i (fun () ->
                let len = sizes.(b) in
                let r = api.Libos.Api.read fd readback (b * uring_slot) len in
                finish api i (r = Ok len) ~bytes:len)
          done
        done;
        file_current := -1;
        ignore (api.Libos.Api.close fd));
    tracer
  in
  let leg =
    run_leg ~label:"uring_io" ~ledger
      ~finished:(fun () -> !receiver_done && Ledger.pending ledger = 0)
      ~make:make_harness ~spawn
      ~first_due:uring_start
      ~horizon:(cycles_of_us 10_000_000.)
      ()
  in
  (* Each block read back must be the block written. *)
  for b = 0 to uring_blocks - 1 do
    let off = b * uring_slot and len = sizes.(b) in
    if
      read_stamp readback off <> b
      || Bytes.sub readback (off + 8) (len - 8) <> Bytes.sub block_base 8 (len - 8)
    then Ledger.refute ledger (uring_blocks + b)
  done;
  (* The receiver must have seen exactly the stream that was sent. *)
  let stream_ok =
    !receiver_done && !received = stream_len
    && Bytes.equal got expected
    && Packet.Checksum.compute got 0 stream_len
       = Packet.Checksum.compute expected 0 stream_len
  in
  if not stream_ok then
    for k = 0 to uring_chunks - 1 do
      Ledger.refute ledger ((2 * uring_blocks) + k)
    done;
  [ leg ]

let names = [ "echo_small"; "kv_open"; "kv_closed"; "udp_bulk"; "uring_io" ]

(* [keep]: the first leg keeps its simulated machine, for the per-layer
   metrics; otherwise every machine is garbage once its leg ends. *)
let run name ~seed ~traced ~keep =
  let legs =
    match name with
    | "echo_small" -> echo_small ~seed ~traced
    | "kv_open" -> kv_open ~seed ~traced
    | "kv_closed" -> kv_closed ~seed ~traced
    | "udp_bulk" -> udp_bulk ~seed ~traced
    | "uring_io" -> uring_io ~seed ~traced
    | _ -> invalid_arg name
  in
  if keep then legs else List.map release legs
