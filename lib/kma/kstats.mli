(** Host-side instrumentation counters (measurement only, never charged
    simulated cycles).

    A *miss* at a layer is an access that required the services of the
    next layer up, following the paper's definition: the per-CPU layer
    misses to the global layer, the global layer misses to the
    coalesce-to-page layer.  Rates derived here reproduce the paper's
    distributed-lock-manager evaluation (experiment E6). *)

type per_size = {
  mutable allocs : int;  (** per-CPU layer allocation attempts *)
  mutable frees : int;  (** per-CPU layer frees *)
  mutable alloc_aux_refills : int;
      (** allocations satisfied by moving aux to main (still local) *)
  mutable alloc_misses : int;  (** allocations that visited the global layer *)
  mutable free_misses : int;  (** frees that flushed a list to the global layer *)
  mutable gbl_gets : int;  (** lists handed out by the global layer *)
  mutable gbl_puts : int;  (** lists accepted by the global layer *)
  mutable gbl_get_misses : int;  (** refills from the coalesce-to-page layer *)
  mutable gbl_put_misses : int;  (** drains to the coalesce-to-page layer *)
  mutable page_block_gets : int;  (** blocks carved out by the page layer *)
  mutable page_block_puts : int;  (** blocks examined back into pages *)
  mutable pages_grabbed : int;  (** pages obtained from the vmblk layer *)
  mutable pages_returned : int;  (** fully-free pages given back *)
}

type t = {
  sizes : per_size array;
  mutable large_allocs : int;
  mutable large_frees : int;
  mutable reaps : int;  (** pressure-triggered reap passes *)
  mutable reap_pages : int;
      (** physical pages returned to the VM system by reap passes *)
  mutable pressure_retries : int;
      (** allocations that succeeded only after reap-and-retry *)
  mutable pressure_failures : int;
      (** allocations that still failed after the bounded retry loop *)
}

val create : nsizes:int -> t
val size : t -> int -> per_size
val reset : t -> unit

(** {1 Derived rates (fractions in [0,1]; [nan] when the denominator is
    zero)} *)

val percpu_alloc_miss_rate : t -> si:int -> float
val percpu_free_miss_rate : t -> si:int -> float
val global_alloc_miss_rate : t -> si:int -> float
val global_free_miss_rate : t -> si:int -> float

val combined_alloc_miss_rate : t -> si:int -> float
(** Fraction of per-CPU allocations that reached the coalescing layer. *)

val combined_free_miss_rate : t -> si:int -> float

val pp : Format.formatter -> t -> unit
