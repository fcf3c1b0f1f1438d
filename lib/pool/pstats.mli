(** Counters for the native pool, after the paper's measurement
    discipline: statistics live with the layer that produces them, per
    CPU, and are summed only when somebody asks.  Each domain mutates
    its own atomic cell (no shared-line ping-pong on the hot path); the
    read accessors aggregate over all cells and are safe to call from
    any domain while workers race.  Individual counters are exact and
    monotone; a snapshot taken mid-run is internally skewed by whatever
    landed between field reads, the same caveat the paper accepts for
    its own per-CPU counters. *)

type t

val create : unit -> t

val incr_alloc : t -> unit
val incr_free : t -> unit
val incr_create : t -> unit
val incr_depot_get : t -> unit
val incr_depot_put : t -> unit
val incr_drop : t -> unit

val note_depot_acquire : t -> contended:bool -> unit
(** Record one depot-lock acquisition on the data path ({!Depot.get},
    {!Depot.put} and {!Depot.put_partial} call it); [contended] means
    the lock was observed held by another domain at acquire time. *)

val incr_prefill : t -> unit
(** Batches constructed and deposited by a dedicated refill domain. *)

val allocs : t -> int
val frees : t -> int

val creates : t -> int
(** Constructor calls: allocations no layer could satisfy. *)

val depot_gets : t -> int
val depot_puts : t -> int

val drops : t -> int
(** Batches released to the GC on depot overflow. *)

val depot_acquires : t -> int
(** Data-path depot-lock acquisitions (get/put/partial exchanges). *)

val depot_contended : t -> int
(** The subset of {!depot_acquires} that found the lock held. *)

val prefills : t -> int

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

val read : t -> snapshot
(** One aggregated pass over every counter. *)

val magazine_hit_rate : t -> float
(** Fraction of allocations served without touching the depot. *)

val contention_rate : t -> float
(** [depot_contended / depot_acquires]; [nan] before any acquisition. *)
