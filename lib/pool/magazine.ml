(* Both halves are array stacks: the top of [main] is
   [main.(main_n - 1)].  An array's length is its capacity; [main] is
   shorter than [tgt] only before first use ([[||]]) or when it is an
   adopted partial depot batch, and [aux] is [[||]] or [tgt] long.
   Popped slots are not cleared: they keep stale references until
   overwritten, which is what keeps the hit path to an index bump. *)

type 'a t = {
  tgt : int;
  mutable main : 'a array;
  mutable main_n : int;
  mutable aux : 'a array;
  mutable aux_n : int;  (* 0 or [tgt] *)
}

let create ~target =
  if target < 1 then invalid_arg "Pool.Magazine.create: target < 1";
  { tgt = target; main = [||]; main_n = 0; aux = [||]; aux_n = 0 }

let target t = t.tgt
let size t = t.main_n + t.aux_n
let is_empty t = t.main_n = 0 && t.aux_n = 0

(* [main] is empty: slide the full [aux] in, keeping the emptied array
   as the spare [aux]. *)
let slide_and_get t =
  if t.aux_n = 0 then invalid_arg "Pool.Magazine.get: empty";
  let spare = t.main in
  t.main <- t.aux;
  t.aux <- (if Array.length spare = t.tgt then spare else [||]);
  t.aux_n <- 0;
  let n = t.tgt - 1 in
  t.main_n <- n;
  Array.unsafe_get t.main n

let get t =
  let n = t.main_n - 1 in
  if n >= 0 then begin
    t.main_n <- n;
    Array.unsafe_get t.main n
  end
  else slide_and_get t

(* [main]'s array is full.  Below [tgt] items it grows to [tgt];
   at [tgt] it slides into [aux], handing the old [aux] batch out if it
   was full, and the new [main] reuses the spare when there is one. *)
let put_full t x =
  let n = t.main_n in
  if n < t.tgt then begin
    let a = Array.make t.tgt x in
    Array.blit t.main 0 a 0 n;
    t.main <- a;
    t.main_n <- n + 1;
    `Ok
  end
  else begin
    let old_aux = t.aux and flushed = t.aux_n > 0 in
    t.aux <- t.main;
    t.aux_n <- t.tgt;
    t.main <-
      (if flushed || Array.length old_aux = 0 then Array.make t.tgt x
       else old_aux);
    Array.unsafe_set t.main 0 x;
    t.main_n <- 1;
    if flushed then `Flush old_aux else `Ok
  end

let put t x =
  let n = t.main_n in
  if n < Array.length t.main then begin
    Array.unsafe_set t.main n x;
    t.main_n <- n + 1;
    `Ok
  end
  else put_full t x

let install t batch =
  if t.main_n <> 0 then invalid_arg "Pool.Magazine.install: main not empty";
  let n = Array.length batch in
  if n > t.tgt then invalid_arg "Pool.Magazine.install: batch too long";
  t.main <- batch;
  t.main_n <- n

(* [a.(0 .. n - 1)] in pop order, top first. *)
let to_list a n =
  let rec go i acc = if i >= n then acc else go (i + 1) (a.(i) :: acc) in
  go 0 []

let drain t =
  let all = to_list t.main t.main_n @ to_list t.aux t.aux_n in
  t.main_n <- 0;
  t.aux_n <- 0;
  all

let check t =
  t.main_n >= 0
  && t.main_n <= Array.length t.main
  && Array.length t.main <= t.tgt
  && (Array.length t.aux = 0 || Array.length t.aux = t.tgt)
  && (t.aux_n = 0 || t.aux_n = t.tgt)
  && t.aux_n <= Array.length t.aux
