(* Host-speed calibration.  The reference host is a share of a shared
   machine: for stretches from a fraction of a second to minutes it runs
   any code that misses the core's L1 cache up to twice as slowly
   (pure arithmetic keeps its speed), and whole runs can fall inside one
   such stretch.  Every wall-clock sample is therefore paired with this
   fixed kernel, timed just before it, and reported at the reference
   speed: scaled by [reference_s] over the kernel's time.  The kernel
   is the benchmark's own code, so a change to the program moves the
   sample and not the kernel. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The kernel's time on the reference host outside a slow stretch; any
   fixed value would do, this one keeps scaled figures near wall time. *)
let reference_s = 0.9e-3

(* Each 512 KiB or more: resident in the reference host's 2 MiB L2, not
   in its L1. *)
let table = Array.init (1 lsl 16) (fun i -> i)
let cells = List.init 30_000 (fun i -> (i, i))

(* Strided reads over an array and walks of a list of boxed pairs: the
   two kinds of memory traffic the simulator and the pool make.  It
   allocates nothing, so it leaves the program's garbage collection as
   it found it. *)
let kernel () =
  let s = ref 0 in
  for _ = 1 to 4 do
    for i = 0 to (1 lsl 16) - 1 do
      s := !s + table.((i * 97) land 0xffff)
    done
  done;
  for _ = 1 to 6 do
    List.iter (fun (a, b) -> s := !s + a + b) cells
  done;
  Sys.opaque_identity !s

(* Seconds the kernel takes now. *)
let measure () =
  let t0 = now_s () in
  ignore (kernel ());
  now_s () -. t0

(* A time measured just after a kernel run of [calib_s], at the
   reference speed; a rate is divided by the same factor. *)
let scale ~calib_s = reference_s /. calib_s
