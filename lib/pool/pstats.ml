(* Per-domain counter cells, aggregated on read.  Each domain gets its
   own cell through DLS, so the hot-path increments never contend on a
   shared cache line; the read accessors fold over the registered
   cells.  Registration is a CAS push onto an immutable list, so a
   racing reader sees either the old or the new list — both safe. *)

type cell = {
  allocs : int Atomic.t;
  frees : int Atomic.t;
  creates : int Atomic.t;
  depot_gets : int Atomic.t;
  depot_puts : int Atomic.t;
  drops : int Atomic.t;
  depot_acquires : int Atomic.t;
  depot_contended : int Atomic.t;
  prefills : int Atomic.t;
}

type t = { cells : cell list Atomic.t; key : cell Domain.DLS.key }

let new_cell () =
  {
    allocs = Atomic.make 0;
    frees = Atomic.make 0;
    creates = Atomic.make 0;
    depot_gets = Atomic.make 0;
    depot_puts = Atomic.make 0;
    drops = Atomic.make 0;
    depot_acquires = Atomic.make 0;
    depot_contended = Atomic.make 0;
    prefills = Atomic.make 0;
  }

let create () =
  let cells = Atomic.make [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let c = new_cell () in
        let rec register () =
          let old = Atomic.get cells in
          if not (Atomic.compare_and_set cells old (c :: old)) then register ()
        in
        register ();
        c)
  in
  { cells; key }

let cell t = Domain.DLS.get t.key

let incr_alloc t = Atomic.incr (cell t).allocs
let incr_free t = Atomic.incr (cell t).frees
let incr_create t = Atomic.incr (cell t).creates
let incr_depot_get t = Atomic.incr (cell t).depot_gets
let incr_depot_put t = Atomic.incr (cell t).depot_puts
let incr_drop t = Atomic.incr (cell t).drops

let note_depot_acquire t ~contended =
  let c = cell t in
  Atomic.incr c.depot_acquires;
  if contended then Atomic.incr c.depot_contended

let incr_prefill t = Atomic.incr (cell t).prefills

let sum t field =
  List.fold_left (fun acc c -> acc + Atomic.get (field c)) 0 (Atomic.get t.cells)

let allocs t = sum t (fun c -> c.allocs)
let frees t = sum t (fun c -> c.frees)
let creates t = sum t (fun c -> c.creates)
let depot_gets t = sum t (fun c -> c.depot_gets)
let depot_puts t = sum t (fun c -> c.depot_puts)
let drops t = sum t (fun c -> c.drops)
let depot_acquires t = sum t (fun c -> c.depot_acquires)
let depot_contended t = sum t (fun c -> c.depot_contended)
let prefills t = sum t (fun c -> c.prefills)

type snapshot = {
  s_allocs : int;
  s_frees : int;
  s_creates : int;
  s_depot_gets : int;
  s_depot_puts : int;
  s_drops : int;
  s_depot_acquires : int;
  s_depot_contended : int;
  s_prefills : int;
}

let read t =
  {
    s_allocs = allocs t;
    s_frees = frees t;
    s_creates = creates t;
    s_depot_gets = depot_gets t;
    s_depot_puts = depot_puts t;
    s_drops = drops t;
    s_depot_acquires = depot_acquires t;
    s_depot_contended = depot_contended t;
    s_prefills = prefills t;
  }

let magazine_hit_rate t =
  let a = allocs t in
  if a = 0 then Float.nan
  else 1. -. (float_of_int (depot_gets t) /. float_of_int a)

let contention_rate t =
  let a = depot_acquires t in
  if a = 0 then Float.nan
  else float_of_int (depot_contended t) /. float_of_int a
