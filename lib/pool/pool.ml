type 'a t = {
  ctor : unit -> 'a;
  reset : ('a -> unit) option;
  target : int;
  depot : 'a Depot.t;
  stats : Pstats.t;
  key : 'a Magazine.t Domain.DLS.key;
}

let create ~ctor ?reset ?(target = 16) ?(depot_batches = 32) () =
  if target < 1 then invalid_arg "Pool.create: target < 1";
  if depot_batches < 0 then invalid_arg "Pool.create: depot_batches < 0";
  let stats = Pstats.create () in
  {
    ctor;
    reset;
    target;
    depot = Depot.create ~stats ~target ~max_batches:depot_batches;
    stats;
    key = Domain.DLS.new_key (fun () -> Magazine.create ~target);
  }

let magazine t = Domain.DLS.get t.key

let construct t =
  Pstats.incr_create t.stats;
  t.ctor ()

(* A depot batch never exceeds [target]: flushes are exactly [target]
   long, [put_partial] regroups to [target], and loose items number
   fewer than [target] — so it installs as is ([Magazine.install]
   still raises if that ever breaks). *)
let alloc t =
  Pstats.incr_alloc t.stats;
  let mag = magazine t in
  match Magazine.get mag with
  | Some x -> x
  | None -> (
      Pstats.incr_depot_get t.stats;
      match Depot.get t.depot with
      | Some batch -> (
          Magazine.install mag batch;
          match Magazine.get mag with
          | Some x -> x
          | None ->
              (* Depot batches are never empty, but fall back safely. *)
              construct t)
      | None -> construct t)

let release t x =
  (match t.reset with Some f -> f x | None -> ());
  Pstats.incr_free t.stats;
  match Magazine.put (magazine t) x with
  | `Ok -> ()
  | `Flush batch -> (
      Pstats.incr_depot_put t.stats;
      match Depot.put t.depot batch with
      | `Kept -> ()
      | `Dropped -> Pstats.incr_drop t.stats)

let with_obj t f =
  let x = alloc t in
  match f x with
  | v ->
      release t x;
      v
  | exception e ->
      release t x;
      raise e

let flush_local t =
  match Magazine.drain (magazine t) with
  | [] -> ()
  | items ->
      Pstats.incr_depot_put t.stats;
      Depot.put_partial t.depot items

let refill t ~batches =
  if batches < 0 then invalid_arg "Pool.refill: batches < 0";
  (* Stop constructing as soon as the depot reports full: one
     speculative batch at most goes to the GC. *)
  let rec go kept =
    if kept = batches then kept
    else begin
      let batch = List.init t.target (fun _ -> t.ctor ()) in
      Pstats.incr_depot_put t.stats;
      match Depot.put t.depot batch with
      | `Kept ->
          Pstats.incr_prefill t.stats;
          go (kept + 1)
      | `Dropped ->
          Pstats.incr_drop t.stats;
          kept
    end
  in
  go 0

let stats t = t.stats
let target t = t.target
let depot_batches t = Depot.batches t.depot
let check t = Magazine.check (magazine t) && Depot.check t.depot
