(** One first-class view of a persistent key-value structure.

    The Figure 5 runner ({!Workload.run_structure_benchmark}) drives
    whichever structure it benchmarks through this record, and the
    crash-consistency checker drives and audits its workloads through
    it. Each constructor closes over one structure value; the view adds
    no state and no cost model of its own. *)

type t = {
  insert : key:int64 -> value:int64 -> unit;
  find : int64 -> int64 option;
  delete : int64 -> bool;
  size : unit -> int;  (** Entries held. *)
  to_list : unit -> (int64 * int64) list;
  check : unit -> (unit, string) result;
      (** The structure's own invariant walk. *)
}

val hash_table : Hash_table.t -> t
val avl : Avl.t -> t
val skiplist : Skiplist.t -> t
val btree : Btree.t -> t
val block_kv : Block_kv.t -> t
