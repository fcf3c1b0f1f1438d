(* A domain's slot: its magazine and its counter cell, behind one DLS
   key, so an operation does one lookup.  Only the owning domain
   touches either. *)
type 'a slot = { mag : 'a Magazine.t; cell : Pstats.cell }

type 'a t = {
  ctor : unit -> 'a;
  reset : ('a -> unit) option;
  target : int;
  depot : 'a Depot.t;
  stats : Pstats.t;
  key : 'a slot Domain.DLS.key;
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
    key =
      Domain.DLS.new_key (fun () ->
          { mag = Magazine.create ~target; cell = Pstats.new_cell stats });
  }

let construct t (c : Pstats.cell) =
  c.creates <- c.creates + 1;
  t.ctor ()

(* The magazine is empty.  A depot batch never exceeds [target]
   ([Depot.put] refuses longer ones), so it installs as is; an empty
   array means the depot had nothing. *)
let alloc_miss t s =
  let c = s.cell in
  c.depot_gets <- c.depot_gets + 1;
  let batch = Depot.get t.depot in
  if Array.length batch = 0 then construct t c
  else begin
    Magazine.install s.mag batch;
    Magazine.get s.mag
  end

let alloc t =
  let s = Domain.DLS.get t.key in
  let c = s.cell in
  c.allocs <- c.allocs + 1;
  if Magazine.is_empty s.mag then alloc_miss t s else Magazine.get s.mag

let deposit t (c : Pstats.cell) batch =
  c.depot_puts <- c.depot_puts + 1;
  match Depot.put t.depot batch with
  | `Kept -> true
  | `Dropped ->
      c.drops <- c.drops + 1;
      false

let release t x =
  (match t.reset with Some f -> f x | None -> ());
  let s = Domain.DLS.get t.key in
  let c = s.cell in
  c.frees <- c.frees + 1;
  match Magazine.put s.mag x with
  | `Ok -> ()
  | `Flush batch -> ignore (deposit t c batch)

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
  let s = Domain.DLS.get t.key in
  match Magazine.drain s.mag with
  | [] -> ()
  | items ->
      s.cell.depot_puts <- s.cell.depot_puts + 1;
      Depot.put_partial t.depot items

let refill t ~batches =
  if batches < 0 then invalid_arg "Pool.refill: batches < 0";
  let c = (Domain.DLS.get t.key).cell in
  (* Stop constructing as soon as the depot reports full: one
     speculative batch at most goes to the GC. *)
  let rec go kept =
    if kept = batches then kept
    else if deposit t c (Array.init t.target (fun _ -> t.ctor ())) then begin
      c.prefills <- c.prefills + 1;
      go (kept + 1)
    end
    else kept
  in
  go 0

let stats t = t.stats
let target t = t.target
let depot_batches t = Depot.batches t.depot
let check t = Magazine.check (Domain.DLS.get t.key).mag && Depot.check t.depot
