type t = {
  engine : Sim.Engine.t;
  id : int;
  mac : Packet.Addr.Mac.t;
  ip : Packet.Addr.Ip.t;
  tx_queue : Bytes.t Sim.Mailbox.t;
  rx_queues : Bytes.t Sim.Mailbox.t array;
  mutable handlers : (Bytes.t -> unit) array;
  udp_rx : int array; (* UDP frames enqueued, per receive queue *)
  mutable peer : t option;
  faults : Faults.t option ref;
  key : string; (* stats key prefix *)
  (* Per-frame counter keys, built once. *)
  rx_key : string;
  tx_key : string;
  drops_key : string;
  (* Datapath shards the receive queues fold onto (queue q -> shard
     q mod shards): the context shard-pinned wire-fault armings match
     against.  Defaults to the queue count (identity) until the runtime
     announces its shard layout. *)
  mutable shards : int;
  (* Bounded-reorder holdback: at most one in-flight frame waiting to be
     overtaken by its successor (or flushed by timer). *)
  mutable held : Bytes.t option;
  mutable held_gen : int;
}

let stats t = Sim.Engine.stats t.engine

let id t = t.id

let mac t = t.mac

let ip t = t.ip

let queue_count t = Array.length t.rx_queues

let rx_packets t = Sim.Stats.get (stats t) t.rx_key

let tx_packets t = Sim.Stats.get (stats t) t.tx_key

let rx_pending t = Array.map Sim.Mailbox.length t.rx_queues

let tx_pending t = Sim.Mailbox.length t.tx_queue

let drops t = Sim.Stats.get (stats t) t.drops_key

(* Hardware RSS: the symmetric Toeplitz flow hash pins each UDP flow to
   one receive queue for the NIC's lifetime.  Non-UDP traffic (ARP) has
   no 4-tuple and lands on queue 0. *)
let queue_of_flow t = function
  | Some (src_ip, dst_ip, src_port, dst_port) ->
      Packet.Rss.queue
        ~queues:(Array.length t.rx_queues)
        ~src_ip ~dst_ip ~src_port ~dst_port
  | None -> 0

let steer t frame = queue_of_flow t (Packet.Frame.peek_udp_flow frame)

let deliver t frame =
  let flow = Packet.Frame.peek_udp_flow frame in
  let q = queue_of_flow t flow in
  if Sim.Mailbox.try_put t.rx_queues.(q) frame then begin
    Sim.Stats.incr (stats t) t.rx_key;
    if Option.is_some flow then t.udp_rx.(q) <- t.udp_rx.(q) + 1
  end
  else Sim.Stats.incr (stats t) t.drops_key

let udp_rx_per_queue t = Array.copy t.udp_rx

let set_shards t shards =
  if shards <= 0 then invalid_arg "Nic.set_shards: need at least one shard";
  t.shards <- shards

(* {2 Link faults}

   The wire itself turning hostile: loss, duplication, bounded reorder,
   delay and length corruption, rolled per frame on the transmit side
   with the shard context of the {e receiving} queue.  RSS is a
   symmetric Toeplitz hash, so a flow and its reverse steer to the same
   queue and a shard-pinned wire fault stays contained to that shard's
   traffic in both directions.  Every lossy outcome is counted under
   [nic.<id>.wire.<fault>] — the wire never makes a frame disappear
   without an accounting trail. *)

let wire_count t fault = Sim.Stats.incr (stats t) (t.key ^ ".wire." ^ fault)

(* Frames the wire destroyed outright or corrupted beyond parsing: the
   accounted-loss contribution of this NIC's transmit side. *)
let wire_losses t =
  let get f = Sim.Stats.get (stats t) (t.key ^ ".wire." ^ f) in
  get "drop" + get "trunc" + get "runt" + get "giant"

let wire_shard t peer frame = Some (steer peer frame mod t.shards)

let roll_wire t ?shard fault =
  match !(t.faults) with
  | Some f when Faults.roll ?shard !(t.faults) fault ->
      Faults.record f fault;
      true
  | _ -> false

(* Deliver a frame that reached the far end of the link, releasing any
   reorder-held predecessor behind it (the overtake). *)
let rec arrive t peer frame =
  deliver peer frame;
  flush_held t

and flush_held t =
  match (t.held, t.peer) with
  | Some f, Some peer ->
      t.held <- None;
      t.held_gen <- t.held_gen + 1;
      arrive t peer f
  | Some _, None -> t.held <- None
  | None, _ -> ()

(* Length corruption: truncate mid-payload, cut below the Ethernet
   header, or grow a garbage tail past the receiver's frame budget. *)
let corrupt_length t ?shard frame =
  let rng f = Sim.Rng.int (Faults.rng f) in
  match !(t.faults) with
  | Some f when Bytes.length frame > 1 && roll_wire t ?shard Faults.Wire_trunc
    ->
      wire_count t "trunc";
      Bytes.sub frame 0 (1 + rng f (Bytes.length frame - 1))
  | Some f when roll_wire t ?shard Faults.Wire_runt ->
      wire_count t "runt";
      Bytes.sub frame 0 (min (Bytes.length frame) (rng f Packet.Eth.header_size))
  | Some f when roll_wire t ?shard Faults.Wire_giant ->
      wire_count t "giant";
      let tail = Sgx.Params.umem_frame_size + 64 + rng f 256 in
      let g = Bytes.make tail '\000' in
      Sim.Rng.fill_bytes (Faults.rng f) g;
      Bytes.cat frame g
  | _ -> frame

let wire_transmit t peer frame =
  let shard = wire_shard t peer frame in
  if roll_wire t ?shard Faults.Wire_drop then begin
    wire_count t "drop";
    (* The dropped frame cannot overtake the held one anymore; let the
       flush timer release it. *)
    ()
  end
  else begin
    let frame = corrupt_length t ?shard frame in
    let copies =
      if roll_wire t ?shard Faults.Wire_dup then begin
        wire_count t "dup";
        2
      end
      else 1
    in
    for _ = 1 to copies do
      if roll_wire t ?shard Faults.Wire_delay then begin
        wire_count t "delay";
        Sim.Engine.at t.engine
          (Int64.add (Sim.Engine.now t.engine) Sgx.Params.fault_wire_delay)
          (fun () -> arrive t peer frame)
      end
      else if t.held = None && roll_wire t ?shard Faults.Wire_reorder then begin
        wire_count t "reorder";
        t.held <- Some frame;
        let gen = t.held_gen in
        (* Bounded in time as well as distance: if no successor overtakes
           the held frame, the link delivers it anyway. *)
        Sim.Engine.at t.engine
          (Int64.add (Sim.Engine.now t.engine)
             Sgx.Params.fault_wire_reorder_flush)
          (fun () -> if t.held_gen = gen then flush_held t)
      end
      else arrive t peer frame
    done
  end

(* The transmit process: serialize frames at the link rate and deliver
   them to the wired peer. *)
let tx_process t () =
  let rec loop () =
    let frame = Sim.Mailbox.get t.tx_queue in
    (* A stall window pauses the transmit engine (PHY retraining, PCIe
       hiccup): frames are delayed, never dropped — queues above absorb
       the back-pressure. *)
    (match !(t.faults) with
    | Some f when Faults.roll !(t.faults) Faults.Nic_stall ->
        Faults.record f Faults.Nic_stall;
        Sim.Engine.delay Sgx.Params.fault_nic_stall
    | _ -> ());
    let wire_cycles =
      Int64.of_float
        (float_of_int (Bytes.length frame) *. !Sgx.Params.live_wire_cycles_per_byte)
    in
    Sim.Engine.delay wire_cycles;
    Sim.Stats.incr (stats t) t.tx_key;
    (match t.peer with
    | Some peer -> wire_transmit t peer frame
    | None -> ());
    loop ()
  in
  loop ()

(* One process per receive queue, standing in for the softirq that
   drains a NIC queue. *)
let rx_process t q () =
  let rec loop () =
    let frame = Sim.Mailbox.get t.rx_queues.(q) in
    t.handlers.(q) frame;
    loop ()
  in
  loop ()

let create ?(faults = ref None) engine ~id ~mac ~ip ~queues =
  if queues <= 0 then invalid_arg "Nic.create: need at least one queue";
  let key = Printf.sprintf "nic.%d" id in
  let t =
    {
      engine;
      id;
      mac;
      ip;
      tx_queue = Sim.Mailbox.create ~capacity:Sgx.Params.nic_queue_len ();
      rx_queues =
        Array.init queues (fun _ ->
            Sim.Mailbox.create ~capacity:Sgx.Params.nic_queue_len ());
      handlers = Array.make queues (fun _ -> ());
      udp_rx = Array.make queues 0;
      peer = None;
      faults;
      key;
      rx_key = key ^ ".rx";
      tx_key = key ^ ".tx";
      drops_key = key ^ ".drops";
      shards = queues;
      held = None;
      held_gen = 0;
    }
  in
  Sim.Engine.spawn engine ~name:(Printf.sprintf "nic%d-tx" id) (tx_process t);
  for q = 0 to queues - 1 do
    Sim.Engine.spawn engine
      ~name:(Printf.sprintf "nic%d-rxq%d" id q)
      (rx_process t q)
  done;
  t

let wire a b =
  a.peer <- Some b;
  b.peer <- Some a

let set_rx_handler t ~queue f =
  if queue < 0 || queue >= Array.length t.handlers then
    invalid_arg "Nic.set_rx_handler: bad queue";
  t.handlers.(queue) <- f

let transmit t frame =
  if not (Sim.Mailbox.try_put t.tx_queue frame) then
    Sim.Stats.incr (stats t) t.drops_key
