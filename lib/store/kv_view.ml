type t = {
  insert : key:int64 -> value:int64 -> unit;
  find : int64 -> int64 option;
  delete : int64 -> bool;
  size : unit -> int;
  to_list : unit -> (int64 * int64) list;
  check : unit -> (unit, string) result;
}

let make ~insert ~find ~delete ~size ~to_list ~check s =
  {
    insert = insert s;
    find = find s;
    delete = delete s;
    size = (fun () -> size s);
    to_list = (fun () -> to_list s);
    check = (fun () -> check s);
  }

let hash_table =
  Hash_table.(make ~insert ~find ~delete ~size:count ~to_list ~check)

let avl = Avl.(make ~insert ~find ~delete ~size ~to_list ~check)
let skiplist = Skiplist.(make ~insert ~find ~delete ~size ~to_list ~check)
let btree = Btree.(make ~insert ~find ~delete ~size ~to_list ~check)
let block_kv = Block_kv.(make ~insert ~find ~delete ~size:count ~to_list ~check)
