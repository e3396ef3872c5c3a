(* Fixed-size pool of OCaml 5 domains draining a shared work queue.

   Built for embarrassingly-parallel experiment sweeps: tasks are
   closures that own all their state (engine, rng, topology), so the
   only shared structures are the work queue and the per-[map] result
   aggregate — both held in a Guarded.t, so every cross-domain access
   is a critical section by construction (and analyses as such under
   leotp-race). *)

type task = unit -> unit

type state = {
  tasks : task Queue.t;
  mutable shutting_down : bool;
}

type t = {
  size : int;
  state : state Guarded.t;
  mutable workers : unit Domain.t list;
      (* spawned once in [create], joined and cleared in [shutdown];
         only ever touched by the owning (submitting) domain *)
}

let rec worker_loop state =
  match
    Guarded.await state (fun s ->
        match Queue.take_opt s.tasks with
        | Some task -> Some (Some task)
        | None -> if s.shutting_down then Some None else None)
  with
  | None -> () (* shutting down *)
  | Some task ->
    (* Tasks are expected to trap their own exceptions ([map] wraps them
       in [Result]); a raise here must not kill the worker. *)
    (try task () with _ -> ());
    worker_loop state

let create ~size =
  if size < 1 then invalid_arg "Domain_pool.create: size must be >= 1";
  let state =
    Guarded.create { tasks = Queue.create (); shutting_down = false }
  in
  {
    size;
    state;
    workers =
      List.init size (fun _ -> Domain.spawn (fun () -> worker_loop state));
  }

let submit t task =
  Guarded.with_ t.state (fun s ->
      if s.shutting_down then
        invalid_arg "Domain_pool.submit: pool is shut down";
      Queue.push task s.tasks)

let shutdown t =
  Guarded.with_ t.state (fun s -> s.shutting_down <- true);
  List.iter Domain.join t.workers;
  t.workers <- []

(* Result aggregation for [map]: workers fill disjoint slots and
   decrement [remaining] inside the critical section; the caller awaits
   [remaining = 0]. *)
type 'r agg = {
  out : 'r option array;
  mutable remaining : int;
}

let map t f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let agg = Guarded.create { out = Array.make n None; remaining = n } in
    Array.iteri
      (fun i x ->
        submit t (fun () ->
            let r = try Ok (f x) with e -> Error e in
            Guarded.with_ agg (fun a ->
                a.out.(i) <- Some r;
                a.remaining <- a.remaining - 1)))
      arr;
    Guarded.await agg (fun a -> if a.remaining = 0 then Some a.out else None)
    |> Array.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
    |> Array.to_list
  end
