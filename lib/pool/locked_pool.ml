type 'a t = {
  ctor : unit -> 'a;
  reset : ('a -> unit) option;
  mutex : Mutex.t;
  mutable free : 'a list;
  stats : Pstats.t;
  cell : Pstats.cell;  (* written only under [mutex] *)
}

let create ~ctor ?reset () =
  let stats = Pstats.create () in
  {
    ctor;
    reset;
    mutex = Mutex.create ();
    free = [];
    stats;
    cell = Pstats.new_cell stats;
  }

let alloc t =
  Mutex.lock t.mutex;
  let c = t.cell in
  c.allocs <- c.allocs + 1;
  match t.free with
  | x :: rest ->
      t.free <- rest;
      Mutex.unlock t.mutex;
      x
  | [] ->
      c.creates <- c.creates + 1;
      Mutex.unlock t.mutex;
      t.ctor ()

let release t x =
  (match t.reset with Some f -> f x | None -> ());
  Mutex.lock t.mutex;
  t.cell.frees <- t.cell.frees + 1;
  t.free <- x :: t.free;
  Mutex.unlock t.mutex

let with_obj t f =
  let x = alloc t in
  match f x with
  | v ->
      release t x;
      v
  | exception e ->
      release t x;
      raise e

let stats t = t.stats
