type mem =
  | Store of { addr : int; len : int }
  | Store_nt of { addr : int }
  | Fence
  | Clflush of { addr : int }
  | Flush_range of { addr : int; len : int }
  | Wbinvd

type log = Append of { kind : int; n_values : int } | Truncate

type tx =
  | Begin of int64
  | Commit of { txid : int64; written_lines : int list }
  | Abort of int64

type heap =
  | Alloc of { addr : int; size : int }
  | Free of { addr : int; size : int }
  | Header_write of { addr : int }

type t =
  | Mem of mem
  | Log of log
  | Tx of tx
  | Wb of { line : int; explicit : bool }
  | Heap of heap

let pp ppf = function
  | Mem (Store { addr; len }) -> Fmt.pf ppf "store[%d,+%d]" addr len
  | Mem (Store_nt { addr }) -> Fmt.pf ppf "store-nt[%d]" addr
  | Mem Fence -> Fmt.pf ppf "fence"
  | Mem (Clflush { addr }) -> Fmt.pf ppf "clflush[%d]" addr
  | Mem (Flush_range { addr; len }) -> Fmt.pf ppf "flush[%d,+%d]" addr len
  | Mem Wbinvd -> Fmt.pf ppf "wbinvd"
  | Log (Append { kind; n_values }) ->
      Fmt.pf ppf "log-append(kind=%d,n=%d)" kind n_values
  | Log Truncate -> Fmt.pf ppf "log-truncate"
  | Tx (Begin txid) -> Fmt.pf ppf "tx-begin(%Ld)" txid
  | Tx (Commit { txid; written_lines }) ->
      Fmt.pf ppf "tx-commit(%Ld,%d lines)" txid (List.length written_lines)
  | Tx (Abort txid) -> Fmt.pf ppf "tx-abort(%Ld)" txid
  | Wb { line; explicit } ->
      Fmt.pf ppf "writeback[line %d,%s]" line
        (if explicit then "flush" else "evict")
  | Heap (Alloc { addr; size }) -> Fmt.pf ppf "alloc[%d,+%d]" addr size
  | Heap (Free { addr; size }) -> Fmt.pf ppf "free[%d,+%d]" addr size
  | Heap (Header_write { addr }) -> Fmt.pf ppf "heap-header[%d]" addr

type sync =
  | Write of { obj : int64; addr : int }
  | Read of { obj : int64 }
  | Ack of { obj : int64 }
  | Publish of { chan : int }
  | Acquire of { chan : int }
  | Handoff_persist of { obj : int64 }
  | Tombstone of { obj : int64 }
  | Barrier

let pp_sync ppf = function
  | Write { obj; addr } when addr >= 0 ->
      Fmt.pf ppf "write obj=0x%Lx @%#x" obj addr
  | Write { obj; _ } -> Fmt.pf ppf "write obj=0x%Lx (tx)" obj
  | Read { obj } -> Fmt.pf ppf "read obj=0x%Lx" obj
  | Ack { obj } -> Fmt.pf ppf "ack obj=0x%Lx" obj
  | Publish { chan } -> Fmt.pf ppf "publish chan %d" chan
  | Acquire { chan } -> Fmt.pf ppf "acquire chan %d" chan
  | Handoff_persist { obj } -> Fmt.pf ppf "handoff-persist obj=0x%Lx" obj
  | Tombstone { obj } -> Fmt.pf ppf "tombstone obj=0x%Lx" obj
  | Barrier -> Fmt.pf ppf "barrier"
