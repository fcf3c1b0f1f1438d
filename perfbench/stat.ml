(* Order statistics shared by both halves of the benchmark. *)

let median = function
  | [] -> invalid_arg "Stat.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of a sorted array: the smallest sample with at
   least [p] of the samples at or below it. *)
let rank_quantile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.rank_quantile: no samples";
  let i = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) i))

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Growable int buffer: simulated latencies are collected exactly and
   sorted once per repetition. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let get b i = b.a.(i)

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort compare a;
    a
end

(* Wall-clock latency histogram in nanoseconds: 1 ns buckets below
   1024 ns, then 64 sub-buckets per power of two (at most 1.6 % wide).
   A quantile is interpolated within its bucket, as if the bucket's
   samples were spread evenly across it.  Fine enough for a 10 % bound
   on p50/p99, where a 12 %-wide log bucket is not; fixed size, so
   recording allocates nothing. *)
module Hist = struct
  let sub_bits = 6
  let exact = 1 lsl (sub_bits + 4)
  let slots = exact + (64 * (1 lsl sub_bits))

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make slots 0; total = 0 }

  let rec msb v e = if v <= 1 then e else msb (v lsr 1) (e + 1)

  let index v =
    if v < exact then max 0 v
    else
      let e = msb v 0 in
      let m = v lsr (e - sub_bits) in
      exact + ((e - sub_bits - 4) lsl sub_bits) + (m - (1 lsl sub_bits))

  (* The lower edge and the width of bucket [i]. *)
  let bounds i =
    if i < exact then (i, 1)
    else
      let j = i - exact in
      let e = (j lsr sub_bits) + sub_bits + 4 in
      let m = (j land ((1 lsl sub_bits) - 1)) + (1 lsl sub_bits) in
      let width = 1 lsl (e - sub_bits) in
      (m * width, width)

  let record h v =
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.total <- h.total + 1

  let clear h =
    Array.fill h.counts 0 slots 0;
    h.total <- 0

  let merge_into ~into h =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) h.counts;
    into.total <- into.total + h.total

  let quantile h p =
    if h.total = 0 then 0.
    else begin
      let want =
        max 1 (int_of_float (Float.ceil (p *. float_of_int h.total)))
      in
      let rec go i seen =
        let c = h.counts.(i) in
        if seen + c >= want || i = slots - 1 then begin
          let lo, width = bounds i in
          let inside = float_of_int (want - seen) -. 0.5 in
          float_of_int lo
          +. (float_of_int width *. inside /. float_of_int (max 1 c))
        end
        else go (i + 1) (seen + c)
      in
      go 0 0
    end
end
