type t = {
  flow : int;
  mutable app_bytes : int;
  mutable wire_bytes_sent : int;
  mutable retransmissions : int;
  owd : Leotp_util.Stats.t;
  retx_owd : Leotp_util.Stats.t;
  delivery : Leotp_util.Timeseries.t;
  sent : float array;  (** one slot: the first-send time [on_deliver] reads *)
  x : float array;
      (** two slots the OWD and the byte count reach the collectors
          through, unboxed *)
  mutable started : float;
  mutable finished : float option;
}

let create ~flow =
  {
    flow;
    app_bytes = 0;
    wire_bytes_sent = 0;
    retransmissions = 0;
    owd = Leotp_util.Stats.create ();
    retx_owd = Leotp_util.Stats.create ();
    delivery = Leotp_util.Timeseries.create ();
    sent = [| 0.0 |];
    x = [| 0.0; 0.0 |];
    started = 0.0;
    finished = None;
  }

let on_send t ~bytes = t.wire_bytes_sent <- t.wire_bytes_sent + bytes
let on_retransmit t = t.retransmissions <- t.retransmissions + 1

let sent t = t.sent

let on_deliver t ~now ~bytes ~retx =
  t.app_bytes <- t.app_bytes + bytes;
  t.x.(0) <- now -. t.sent.(0);
  Leotp_util.Stats.add t.owd t.x 0;
  if retx then Leotp_util.Stats.add t.retx_owd t.x 0;
  t.x.(1) <- float_of_int bytes;
  Leotp_util.Timeseries.add t.delivery ~time:now t.x 1

let set_started t v = t.started <- v
let set_finished t v = t.finished <- Some v
let app_bytes t = t.app_bytes
let wire_bytes_sent t = t.wire_bytes_sent
let retransmissions t = t.retransmissions
let owd t = t.owd
let retx_owd t = t.retx_owd
let delivery t = t.delivery

let completion_time t =
  match t.finished with Some f -> Some (f -. t.started) | None -> None

let goodput_mbps delivery ~lo ~hi =
  if hi <= lo then 0.0
  else
    Leotp_util.Units.bytes_per_sec_to_mbps
      (Leotp_util.Timeseries.window_sum delivery ~lo ~hi /. (hi -. lo))
