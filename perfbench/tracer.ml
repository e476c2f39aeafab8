(* The traced run: a wrapper around every field of the enclave's
   [Libos.Api.t] that opens one span per call, attributed to the op the
   call served, plus one span per op taken from the ledger.

   A call learns its op from the workload's [resolve] hook (the peer
   address or payload it carries).  Calls that carry neither (the poll
   before a recvfrom) wait on their thread until the next call that
   does, and take its op.  Spans stay in memory and are written out as
   a Chrome trace when the run ends.

   Host times of a call are inclusive: the simulator runs every
   simulated thread on one OCaml domain, so a call that suspends (any
   call that spends simulated time) also covers the host work of the
   threads that ran meanwhile. *)

type span = {
  name : string;
  op : int;  (** [-1]: the call served no op (idle polling, set-up) *)
  tid : int;
  sim0 : int;
  sim1 : int;
  host0 : float;
  host1 : float;
}

type call_stat = {
  mutable calls : int;
  mutable errors : int;
  mutable sim_cycles : int;
  mutable host_s : float;
}

type t = {
  engine : Sim.Engine.t;
  resolve : string -> Libos.Api.sockaddr option -> Bytes.t option -> int;
  mutable spans : span list;
  mutable next_tid : int;
  stats : (string, call_stat) Hashtbl.t;
}

type thread = { tid : int; mutable waiting : span list }

let create engine ~resolve =
  { engine; resolve; spans = []; next_tid = 1; stats = Hashtbl.create 32 }

let host_now = Unix.gettimeofday

let sim_now t = Int64.to_int (Sim.Engine.now t.engine)

let stat t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None ->
      let s = { calls = 0; errors = 0; sim_cycles = 0; host_s = 0. } in
      Hashtbl.add t.stats name s;
      s

let call_stat t name =
  match Hashtbl.find_opt t.stats name with
  | Some s -> s
  | None -> { calls = 0; errors = 0; sim_cycles = 0; host_s = 0. }

let total_calls t = Hashtbl.fold (fun _ s n -> n + s.calls) t.stats 0

let total_errors t = Hashtbl.fold (fun _ s n -> n + s.errors) t.stats 0

let record t th name ~error ~op ~sim0 ~host0 =
  let sim1 = sim_now t and host1 = host_now () in
  let s = stat t name in
  s.calls <- s.calls + 1;
  if error then s.errors <- s.errors + 1;
  s.sim_cycles <- s.sim_cycles + (sim1 - sim0);
  s.host_s <- s.host_s +. (host1 -. host0);
  let span = { name; op; tid = th.tid; sim0; sim1; host0; host1 } in
  if op >= 0 then begin
    List.iter (fun w -> t.spans <- { w with op } :: t.spans) th.waiting;
    th.waiting <- [];
    t.spans <- span :: t.spans
  end
  else th.waiting <- span :: th.waiting

let is_error = function Error _ -> true | Ok _ -> false

let rec wrap t th (api : Libos.Api.t) : Libos.Api.t =
  let timed name ?(op = fun _ -> -1) f =
    let sim0 = sim_now t and host0 = host_now () in
    let r = f () in
    record t th name ~error:(is_error r) ~op:(op r) ~sim0 ~host0;
    r
  in
  let plain name f =
    let sim0 = sim_now t and host0 = host_now () in
    let r = f () in
    record t th name ~error:false ~op:(-1) ~sim0 ~host0;
    r
  in
  {
    api with
    udp_socket = (fun () -> plain "udp_socket" api.udp_socket);
    tcp_socket = (fun () -> plain "tcp_socket" api.tcp_socket);
    bind = (fun fd a -> timed "bind" (fun () -> api.bind fd a));
    listen = (fun fd -> timed "listen" (fun () -> api.listen fd));
    accept = (fun fd -> timed "accept" (fun () -> api.accept fd));
    connect = (fun fd a -> timed "connect" (fun () -> api.connect fd a));
    sendto =
      (fun fd b a ->
        timed "sendto"
          ~op:(fun _ -> t.resolve "sendto" (Some a) (Some b))
          (fun () -> api.sendto fd b a));
    recvfrom =
      (fun fd max ->
        timed "recvfrom"
          ~op:(function
            | Ok (b, a) -> t.resolve "recvfrom" (Some a) (Some b)
            | Error _ -> -1)
          (fun () -> api.recvfrom fd max));
    send =
      (fun fd b off len ->
        timed "send"
          ~op:(fun _ -> t.resolve "send" None None)
          (fun () -> api.send fd b off len));
    recv = (fun fd b off len -> timed "recv" (fun () -> api.recv fd b off len));
    openf =
      (fun ~create ~trunc p -> timed "openf" (fun () -> api.openf ~create ~trunc p));
    read =
      (fun fd b off len ->
        timed "read"
          ~op:(fun _ -> t.resolve "read" None None)
          (fun () -> api.read fd b off len));
    write =
      (fun fd b off len ->
        timed "write"
          ~op:(fun _ -> t.resolve "write" None None)
          (fun () -> api.write fd b off len));
    lseek = (fun fd o -> timed "lseek" (fun () -> api.lseek fd o));
    fsize = (fun fd -> timed "fsize" (fun () -> api.fsize fd));
    close = (fun fd -> timed "close" (fun () -> api.close fd));
    poll = (fun l ~timeout -> timed "poll" (fun () -> api.poll l ~timeout));
    spawn =
      (fun ~name f -> api.spawn ~name (fun child -> f (wrap t (thread t) child)));
  }

and thread t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  { tid; waiting = [] }

let api t api = wrap t (thread t) api

(* Spans of one finished run, with the op spans taken from the
   ledger.  Op spans get [tid = 0]. *)
let op_spans (ledger : Ledger.t) =
  let out = ref [] in
  for i = Ledger.length ledger - 1 downto 0 do
    match ledger.Ledger.fate.(i) with
    | Ledger.Ok | Ledger.Failed ->
        out :=
          {
            name = "op";
            op = i;
            tid = 0;
            sim0 = ledger.Ledger.due.(i);
            sim1 = ledger.Ledger.fin.(i);
            host0 = ledger.Ledger.host_start.(i);
            host1 = ledger.Ledger.host_fin.(i);
          }
          :: !out
    | Ledger.Shed | Ledger.Pending -> ()
  done;
  !out

(* Self time of each op span: its duration minus the part its child
   call spans cover (children clipped to the op, overlaps merged).
   Returns (sum of op durations, sum of op self times), in cycles. *)
let op_self t ledger =
  let n = Ledger.length ledger in
  let kids = Array.make n [] in
  List.iter
    (fun s -> if s.op >= 0 && s.op < n then kids.(s.op) <- s :: kids.(s.op))
    t.spans;
  let total = ref 0 and self = ref 0 in
  List.iter
    (fun o ->
      let d = o.sim1 - o.sim0 in
      let ivs =
        List.filter_map
          (fun c ->
            let a = max c.sim0 o.sim0 and b = min c.sim1 o.sim1 in
            if b > a then Some (a, b) else None)
          kids.(o.op)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      total := !total + d;
      self := !self + (d - covered))
    (op_spans ledger);
  (!total, !self)

let span_count t = List.length t.spans

(* Chrome trace_event JSON, simulated microseconds on the time axis
   (2.4 GHz), host times in the args. *)
let write_chrome t ledger path =
  let oc = open_out path in
  let us c = float_of_int c /. 2400. in
  let first = ref true in
  let emit s =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.4f,\"dur\":%.4f,\"args\":{\"op\":%d,\"host_start_s\":%.9f,\"host_dur_us\":%.3f}}"
      s.name s.tid (us s.sim0)
      (us (s.sim1 - s.sim0))
      s.op s.host0
      ((s.host1 -. s.host0) *. 1e6)
  in
  output_string oc "{\"traceEvents\":[\n";
  List.iter emit (op_spans ledger);
  List.iter emit (List.rev t.spans);
  output_string oc "\n]}\n";
  close_out oc
