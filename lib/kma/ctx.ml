type t = {
  machine : Sim.Machine.t;
  layout : Layout.t;
  vmsys : Sim.Vmsys.t;
  stats : Kstats.t;
  glocks : Sim.Spinlock.t array;
  plocks : Sim.Spinlock.t array;
  vlock : Sim.Spinlock.t;
  mutable pressure : bool;
  numa_global : bool;
}

let memory t = Sim.Machine.memory t.machine
let params t = t.layout.Layout.params
