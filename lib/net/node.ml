type t = {
  id : int;
  name : string;
  routes : (int, Link.t) Hashtbl.t;
  mutable handler : Packet.t -> unit;
  mutable no_route_drops : int;
}

(* Domain-local: see the note on [Packet.counter]. *)
let counter = Domain.DLS.new_key (fun () -> ref 0)

(* [find], not [find_opt]: the option would be allocated at every hop. *)
let send t pkt =
  match Hashtbl.find t.routes pkt.Packet.dst with
  | link -> Link.send link pkt
  | exception Not_found ->
    (* The packet dies here: no route means no owner downstream. *)
    t.no_route_drops <- t.no_route_drops + 1;
    Packet_pool.release pkt

let create ~name =
  let c = Domain.DLS.get counter in
  incr c;
  let rec t =
    {
      id = !c;
      name;
      routes = Hashtbl.create 16;
      handler = (fun pkt -> send t pkt);
      no_route_drops = 0;
    }
  in
  t

let reset_ids () = Domain.DLS.get counter := 0
let id t = t.id
let name t = t.name
let add_route t ~dst link = Hashtbl.replace t.routes dst link
let remove_route t ~dst = Hashtbl.remove t.routes dst
let clear_routes t = Hashtbl.reset t.routes
let set_handler t h = t.handler <- h
let receive t pkt = t.handler pkt
let no_route_drops t = t.no_route_drops
