(** Shared allocator context threaded through every layer: the
    per-engine allocator state the paper's Design section distributes
    across its four layers, minus the parts that live in simulated
    memory.

    Created once at boot by {!Kmem.create}; the layer modules
    ({!Percpu}, {!Global}, {!Pagepool}, {!Vmblk}) keep all their mutable
    state in simulated memory and use this record only for the machine
    handle, the layout constants, the lock handles and the host-side
    instrumentation. *)

type t = {
  machine : Sim.Machine.t;
  layout : Layout.t;
  vmsys : Sim.Vmsys.t;
  stats : Kstats.t;
  glocks : Sim.Spinlock.t array;
      (** global-layer locks, one per (node, size) indexed
          [node * nsizes + si] — length [nnodes * nsizes]; on a flat
          machine this is exactly the per-size array it always was *)
  plocks : Sim.Spinlock.t array;  (** per-size coalesce-to-page locks *)
  vlock : Sim.Spinlock.t;  (** coalesce-to-vmblk lock *)
  mutable pressure : bool;
      (** the {!Pressure} subsystem is armed: allocations gain its
          reap-and-retry loop; false (the default) leaves the
          allocator exactly the paper's *)
  numa_global : bool;
      (** when true, {!Global} keeps a separate gblfree per NUMA node
          and each CPU drains/fills against its own node's pool; when
          false (the default) only node 0's records are ever touched
          and the layer is bit-identical to the pre-NUMA allocator *)
}

val memory : t -> Sim.Memory.t
val params : t -> Params.t
