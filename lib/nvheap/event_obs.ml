module C = Wsp_obs.Metrics.Counter

let attach ?metrics bus =
  let reg =
    match metrics with Some reg -> reg | None -> Wsp_obs.Metrics.create ()
  in
  let c = Wsp_obs.Metrics.counter reg in
  let m_fences = c "nvheap.fences" in
  let m_appends = c "nvheap.log.appends" in
  let m_append_words = c "nvheap.log.append_words" in
  let m_truncates = c "nvheap.log.truncates" in
  let m_commits = c "nvheap.txn.commits" in
  let m_aborts = c "nvheap.txn.aborts" in
  Wsp_events.Bus.subscribe bus (fun (ev : Event.t) ->
      match ev with
      | Event.Mem Event.Fence -> C.incr m_fences
      | Event.Log (Event.Append { n_values; _ }) ->
          C.incr m_appends;
          C.add m_append_words (1 + (2 * n_values))
      | Event.Log Event.Truncate -> C.incr m_truncates
      | Event.Tx (Event.Commit _) -> C.incr m_commits
      | Event.Tx (Event.Abort _) -> C.incr m_aborts
      | Event.Mem
          ( Event.Store _ | Event.Store_nt _ | Event.Clflush _
          | Event.Flush_range _ | Event.Wbinvd )
      | Event.Tx (Event.Begin _)
      | Event.Wb _ | Event.Heap _ -> ())
