module C = Wsp_obs.Metrics.Counter

let attach ?metrics bus =
  let reg =
    match metrics with Some reg -> reg | None -> Wsp_obs.Metrics.create ()
  in
  let c = Wsp_obs.Metrics.counter reg in
  let m_stores = c "nvheap.stores" in
  let m_nt_stores = c "machine.flush.nt_stores" in
  let m_fences = c "machine.flush.fences" in
  let m_clflush = c "machine.flush.clflush" in
  let m_flush_range = c "machine.flush.flush_range" in
  let m_wbinvd = c "machine.flush.wbinvd" in
  let m_appends = c "nvheap.log.appends" in
  let m_append_words = c "nvheap.log.append_words" in
  let m_truncates = c "nvheap.log.truncates" in
  let m_commits = c "nvheap.txn.commits" in
  let m_aborts = c "nvheap.txn.aborts" in
  let m_allocs = c "nvheap.alloc.allocs" in
  let m_frees = c "nvheap.alloc.frees" in
  Wsp_events.Bus.subscribe bus (fun (ev : Event.t) ->
      match ev with
      | Event.Mem (Event.Store _) -> C.incr m_stores
      | Event.Mem (Event.Store_nt _) -> C.incr m_nt_stores
      | Event.Mem Event.Fence -> C.incr m_fences
      | Event.Mem (Event.Clflush _) -> C.incr m_clflush
      | Event.Mem (Event.Flush_range _) -> C.incr m_flush_range
      | Event.Mem Event.Wbinvd -> C.incr m_wbinvd
      | Event.Log (Event.Append { n_values; _ }) ->
          C.incr m_appends;
          C.add m_append_words (1 + (2 * n_values))
      | Event.Log Event.Truncate -> C.incr m_truncates
      | Event.Tx (Event.Commit _) -> C.incr m_commits
      | Event.Tx (Event.Abort _) -> C.incr m_aborts
      | Event.Heap (Event.Alloc _) -> C.incr m_allocs
      | Event.Heap (Event.Free _) -> C.incr m_frees
      | Event.Tx (Event.Begin _)
      | Event.Heap (Event.Header_write _)
      | Event.Wb _ -> ())
