type 'a t = {
  mutex : Mutex.t;
  cell : Pstats.cell;  (* written only under [mutex] *)
  target : int;
  stock : 'a array array;  (* [stock.(0 .. nbatches - 1)]; the rest [[||]] *)
  mutable nbatches : int;
  mutable loose : 'a list;  (* the bucket list: odd-sized returns *)
  mutable nloose : int;
}

let create ~stats ~target ~max_batches =
  if target < 1 then invalid_arg "Pool.Depot.create: target < 1";
  if max_batches < 0 then invalid_arg "Pool.Depot.create: max_batches < 0";
  {
    mutex = Mutex.create ();
    cell = Pstats.new_cell stats;
    target;
    stock = Array.make max_batches [||];
    nbatches = 0;
    loose = [];
    nloose = 0;
  }

(* A data-path exchange starts here: a failed [try_lock] is exactly one
   other domain inside the depot, recorded as a contended acquisition.
   The counters are written under the lock, so they have one writer at
   a time. *)
let acquire t =
  let contended = not (Mutex.try_lock t.mutex) in
  if contended then Mutex.lock t.mutex;
  let c = t.cell in
  c.depot_acquires <- c.depot_acquires + 1;
  if contended then c.depot_contended <- c.depot_contended + 1

(* [get] and [put] cannot raise between [acquire] and [unlock], so they
   unlock by hand rather than through a closure. *)
let get t =
  acquire t;
  let batch =
    let n = t.nbatches in
    if n > 0 then begin
      let b = t.stock.(n - 1) in
      t.stock.(n - 1) <- [||];
      t.nbatches <- n - 1;
      b
    end
    else if t.nloose = 0 then [||]
    else begin
      (* Fewer than [target] items: fits any magazine. *)
      let b = Array.of_list (List.rev t.loose) in
      t.loose <- [];
      t.nloose <- 0;
      b
    end
  in
  Mutex.unlock t.mutex;
  batch

let put t batch =
  let n = Array.length batch in
  if n = 0 || n > t.target then
    invalid_arg "Pool.Depot.put: batch empty or longer than target";
  acquire t;
  let r =
    if t.nbatches >= Array.length t.stock then `Dropped
    else begin
      t.stock.(t.nbatches) <- batch;
      t.nbatches <- t.nbatches + 1;
      `Kept
    end
  in
  Mutex.unlock t.mutex;
  r

(* Regroup odd-sized returns into full target-sized batches — the
   paper's bucket list.  Overflow beyond the bound goes to the GC. *)
let put_partial t items =
  acquire t;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      t.loose <- items @ t.loose;
      t.nloose <- t.nloose + List.length items;
      while t.nloose >= t.target do
        (* The first [target] items, bottom to top. *)
        let batch =
          Array.of_list (List.filteri (fun i _ -> i < t.target) t.loose)
        in
        t.loose <- List.filteri (fun i _ -> i >= t.target) t.loose;
        t.nloose <- t.nloose - t.target;
        if t.nbatches < Array.length t.stock then begin
          t.stock.(t.nbatches) <- batch;
          t.nbatches <- t.nbatches + 1
        end
        (* else: dropped to the GC *)
      done)

let batches t = Mutex.protect t.mutex (fun () -> t.nbatches)

let drain t =
  Mutex.protect t.mutex (fun () ->
      (* Oldest batch first, bottom to top, each consed on the front:
         the result is newest batch first, each in pop order. *)
      let all = ref t.loose in
      for i = 0 to t.nbatches - 1 do
        Array.iter (fun x -> all := x :: !all) t.stock.(i);
        t.stock.(i) <- [||]
      done;
      t.nbatches <- 0;
      t.loose <- [];
      t.nloose <- 0;
      !all)

let check t =
  Mutex.protect t.mutex (fun () ->
      let rec stocked i =
        i >= Array.length t.stock
        ||
        let n = Array.length t.stock.(i) in
        (if i < t.nbatches then n >= 1 && n <= t.target else n = 0)
        && stocked (i + 1)
      in
      t.nbatches >= 0
      && t.nbatches <= Array.length t.stock
      && stocked 0
      && t.nloose = List.length t.loose
      && t.nloose < t.target)
