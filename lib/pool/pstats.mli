(** Counters for the native pool, after the paper's measurement
    discipline: statistics live with the layer that produces them, per
    CPU, and are summed only when somebody asks.

    Counts live in {!cell}s of plain mutable ints.  Each cell has a
    single writer at a time: a pool's per-domain slot (only its own
    domain writes it), or a structure's lock holder ({!Depot},
    {!Locked_pool}).  An increment is therefore a load and a store — no
    atomic read-modify-write and no cache line shared with another
    domain on the hot path.  The read accessors fold over every cell
    registered with a {!t}, and may run on any domain while writers
    race:
    - a racing read of a counter returns a value its writer stored,
      because an immediate [int] cannot tear, so it is a valid count;
    - successive reads of a counter from one domain never go backwards
      (per-location coherence; cells are only ever added, starting at
      zero);
    - totals are exact once the writers are joined or otherwise
      synchronised with the reader (e.g. through a mutex or
      [Domain.join]).

    A snapshot taken mid-run is internally skewed by whatever landed
    between field reads, the same caveat the paper accepts for its own
    per-CPU counters. *)

type t

type cell = {
  mutable allocs : int;
  mutable frees : int;
  mutable creates : int;  (** constructor calls *)
  mutable depot_gets : int;  (** allocations that went past the magazine *)
  mutable depot_puts : int;  (** batches handed to the depot *)
  mutable drops : int;  (** batches released to the GC on depot overflow *)
  mutable depot_acquires : int;  (** data-path depot-lock acquisitions *)
  mutable depot_contended : int;  (** the subset that found the lock held *)
  mutable prefills : int;  (** batches deposited by {!Pool.refill} *)
}
(** One writer's counters.  Write them only from the cell's owner (or
    under the lock that serialises its writers). *)

val create : unit -> t

val new_cell : t -> cell
(** [new_cell t] registers a fresh zeroed cell with [t] and returns it.
    Registration is lock-free and safe from any domain; call it once per
    owner, not per operation. *)

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
