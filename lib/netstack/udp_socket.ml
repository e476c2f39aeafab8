(* A queued datagram, stamped (in cycles) at enqueue. *)
type datagram = {
  payload : Bytes.t;
  src : Packet.Addr.Ip.t * int;
  enqueued_at : int;
}

type t = {
  port : int;
  queue : datagram Sim.Mailbox.t;
  activity : Sim.Condition.t;
  clock : unit -> int64;
  mutable on_dequeue : (sojourn:int64 -> depth:int -> unit) option;
  mutable drops : int;
}

let default_capacity = 4096

let create ?(queue_capacity = default_capacity) ?(clock = fun () -> 0L) ~port
    () =
  {
    port;
    queue = Sim.Mailbox.create ~capacity:queue_capacity ();
    activity = Sim.Condition.create ();
    clock;
    on_dequeue = None;
    drops = 0;
  }

let port t = t.port

let set_on_dequeue t f = t.on_dequeue <- Some f

let enqueue t payload ~src =
  if
    Sim.Mailbox.try_put t.queue
      { payload; src; enqueued_at = Int64.to_int (t.clock ()) }
  then begin
    Sim.Condition.broadcast t.activity;
    true
  end
  else begin
    t.drops <- t.drops + 1;
    false
  end

let recvfrom t ~max =
  let { payload; src; enqueued_at } = Sim.Mailbox.get t.queue in
  (match t.on_dequeue with
  | None -> ()
  | Some f ->
      f
        ~sojourn:(Int64.of_int (Int64.to_int (t.clock ()) - enqueued_at))
        ~depth:(Sim.Mailbox.length t.queue));
  let payload =
    if Bytes.length payload > max then Bytes.sub payload 0 max else payload
  in
  (payload, src)

let readable t = not (Sim.Mailbox.is_empty t.queue)

let head_stamp t =
  match Sim.Mailbox.peek t.queue with
  | Some d -> d.enqueued_at
  | None -> max_int

let pending t = Sim.Mailbox.length t.queue

let drops t = t.drops

let activity t = t.activity
