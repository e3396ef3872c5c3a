type hop_spec = {
  bandwidth : Bandwidth.t;
  delay : float;
  plr : float;
  buffer_bytes : int;
}

let hop ?(plr = 0.0) ?(buffer_bytes = 256 * 1024) ~bandwidth ~delay () =
  { bandwidth; delay; plr; buffer_bytes }

type duplex = { fwd : Link.t; rev : Link.t }

let connect engine ~rng a b spec =
  let mk src dst =
    let name = Printf.sprintf "%s->%s" (Node.name src) (Node.name dst) in
    let link =
      Link.create engine ~name ~bandwidth:spec.bandwidth ~delay:spec.delay
        ~plr:spec.plr ~buffer_bytes:spec.buffer_bytes
        ~rng:(Leotp_util.Rng.substream rng name)
        ()
    in
    Link.set_sink link (fun pkt -> Node.receive dst pkt);
    link
  in
  let fwd = mk a b in
  let rev = mk b a in
  { fwd; rev }

type chain = { nodes : Node.t array; hops : duplex array }

let chain engine ~rng specs =
  let n = Array.length specs in
  let nodes =
    Array.init (n + 1) (fun i -> Node.create ~name:(Printf.sprintf "n%d" i))
  in
  let hops =
    Array.init n (fun i -> connect engine ~rng nodes.(i) nodes.(i + 1) specs.(i))
  in
  (* Routing along the line: from node i, any node j > i goes over hop i's
     forward link, any j < i over hop (i-1)'s reverse link. *)
  for i = 0 to n do
    for j = 0 to n do
      if j > i then Node.add_route nodes.(i) ~dst:(Node.id nodes.(j)) hops.(i).fwd
      else if j < i then
        Node.add_route nodes.(i) ~dst:(Node.id nodes.(j)) hops.(i - 1).rev
    done
  done;
  { nodes; hops }

type dumbbell = {
  senders : Node.t array;
  receivers : Node.t array;
  left : Node.t;
  right : Node.t;
  bottleneck : duplex;
  sender_links : duplex array;
  receiver_links : duplex array;
}

let dumbbell engine ~rng ~access ~bottleneck:bspec =
  let n = Array.length access in
  let senders =
    Array.init n (fun i -> Node.create ~name:(Printf.sprintf "s%d" i))
  in
  let receivers =
    Array.init n (fun i -> Node.create ~name:(Printf.sprintf "r%d" i))
  in
  let left = Node.create ~name:"L" and right = Node.create ~name:"R" in
  let bottleneck = connect engine ~rng left right bspec in
  let sender_links =
    Array.init n (fun i -> connect engine ~rng senders.(i) left access.(i))
  in
  let receiver_links =
    Array.init n (fun i -> connect engine ~rng right receivers.(i) access.(i))
  in
  for i = 0 to n - 1 do
    let s = senders.(i) and r = receivers.(i) in
    (* Sender i -> its access link for everything. *)
    Node.add_route s ~dst:(Node.id r) sender_links.(i).fwd;
    Node.add_route s ~dst:(Node.id right) sender_links.(i).fwd;
    Node.add_route s ~dst:(Node.id left) sender_links.(i).fwd;
    (* Receiver i -> back over its access link. *)
    Node.add_route r ~dst:(Node.id s) receiver_links.(i).rev;
    Node.add_route r ~dst:(Node.id left) receiver_links.(i).rev;
    Node.add_route r ~dst:(Node.id right) receiver_links.(i).rev;
    (* Left router. *)
    Node.add_route left ~dst:(Node.id s) sender_links.(i).rev;
    Node.add_route left ~dst:(Node.id r) bottleneck.fwd;
    (* Right router. *)
    Node.add_route right ~dst:(Node.id r) receiver_links.(i).fwd;
    Node.add_route right ~dst:(Node.id s) bottleneck.rev
  done;
  Node.add_route left ~dst:(Node.id right) bottleneck.fwd;
  Node.add_route right ~dst:(Node.id left) bottleneck.rev;
  { senders; receivers; left; right; bottleneck; sender_links; receiver_links }
