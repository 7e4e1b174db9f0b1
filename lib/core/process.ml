open Wsp_sim
open Wsp_machine
open Wsp_nvheap

type handle_kind = File | Socket | Timer | Shared_memory | Device_handle

let handle_kind_code = function
  | File -> 1L
  | Socket -> 2L
  | Timer -> 3L
  | Shared_memory -> 4L
  | Device_handle -> 5L

let handle_kind_of_code = function
  | 1L -> File
  | 2L -> Socket
  | 3L -> Timer
  | 4L -> Shared_memory
  | 5L -> Device_handle
  | _ -> invalid_arg "Process: corrupt handle table"

type encapsulation = Direct_kernel | Library_os

type thread_state = Running_user | Blocked_in_syscall of handle_kind

type thread = { mutable context : Cpu.Context.t; mutable state : thread_state }

type t = {
  heap : Pheap.t;
  encapsulation : encapsulation;
  threads : thread array;
  mutable handles : (int * handle_kind) list;  (* newest first *)
  mutable next_handle : int;
  mutable image : int;  (* heap address of the checkpoint image; 0 = none *)
}

let max_handles = 64
let max_threads = 32

(* Image layout: [n_threads][n_handles]
   [thread contexts + state word each][handle (id, kind) pairs]. *)
let image_bytes =
  16
  + (max_threads * (Cpu.Context.size_bytes + 8))
  + (max_handles * 16)

let create ?(encapsulation = Library_os) ~heap ~threads ~rng () =
  if threads <= 0 || threads > max_threads then
    invalid_arg "Process.create: thread count out of range";
  let threads =
    Array.init threads (fun _ ->
        { context = Cpu.Context.random rng; state = Running_user })
  in
  { heap; encapsulation; threads; handles = []; next_handle = 1; image = 0 }

let encapsulation t = t.encapsulation
let handle_count t = List.length t.handles

let open_handle t kind =
  if handle_count t >= max_handles then invalid_arg "Process: handle table full";
  let id = t.next_handle in
  t.next_handle <- id + 1;
  t.handles <- (id, kind) :: t.handles;
  id

let block_thread t ~thread ~on =
  if thread < 0 || thread >= Array.length t.threads then
    invalid_arg "Process.block_thread: no such thread";
  t.threads.(thread).state <- Blocked_in_syscall on

let thread_states t =
  Array.to_list (Array.map (fun th -> th.state) t.threads)

let state_word th =
  match th.state with
  | Running_user -> 0L
  | Blocked_in_syscall kind -> Int64.logor 0x100L (handle_kind_code kind)

let state_of_word w =
  if Int64.equal w 0L then Running_user
  else Blocked_in_syscall (handle_kind_of_code (Int64.logand w 0xffL))

let checkpoint t =
  let image = if t.image = 0 then Pheap.alloc t.heap image_bytes else t.image in
  t.image <- image;
  Pheap.write_u64 t.heap ~addr:image (Int64.of_int (Array.length t.threads));
  Pheap.write_u64 t.heap ~addr:(image + 8) (Int64.of_int (handle_count t));
  let ctx_base = image + 16 in
  Array.iteri
    (fun i th ->
      let off = ctx_base + (i * (Cpu.Context.size_bytes + 8)) in
      let buf = Bytes.create Cpu.Context.size_bytes in
      Cpu.Context.write th.context buf ~off:0;
      Pheap.write_u64 t.heap ~addr:off (state_word th);
      (* Contexts are written word by word through the heap so they are
         subject to the same cache/crash semantics as everything else. *)
      for w = 0 to (Cpu.Context.size_bytes / 8) - 1 do
        Pheap.write_u64 t.heap
          ~addr:(off + 8 + (8 * w))
          (Bytes.get_int64_le buf (8 * w))
      done)
    t.threads;
  let handle_base = ctx_base + (max_threads * (Cpu.Context.size_bytes + 8)) in
  List.iteri
    (fun i (id, kind) ->
      Pheap.write_u64 t.heap ~addr:(handle_base + (16 * i)) (Int64.of_int id);
      Pheap.write_u64 t.heap ~addr:(handle_base + (16 * i) + 8) (handle_kind_code kind))
    t.handles;
  Pheap.set_root t.heap image

type restore_report = {
  outcome : [ `Restored | `Unrestorable of string ];
  syscalls_aborted : int;
  handles_recreated : int;
  handles_dangling : int;
  restart_latency : Time.t;
  contexts_intact : bool;
}

let handle_reestablish_latency = Time.ms 5.0

let kernel_boot = Time.s 3.0

let restore_on_fresh_os t =
  if t.image = 0 then
    invalid_arg "Process.restore_on_fresh_os: no checkpoint image";
  let image = Pheap.root t.heap in
  let n_threads = Int64.to_int (Pheap.read_u64 t.heap ~addr:image) in
  let n_handles = Int64.to_int (Pheap.read_u64 t.heap ~addr:(image + 8)) in
  match t.encapsulation with
  | Direct_kernel when n_handles > 0 ->
      {
        outcome =
          `Unrestorable
            (Printf.sprintf
               "%d handles reference structures of the dead kernel" n_handles);
        syscalls_aborted = 0;
        handles_recreated = 0;
        handles_dangling = n_handles;
        restart_latency = kernel_boot;
        contexts_intact = false;
      }
  | Direct_kernel | Library_os ->
      let ctx_base = image + 16 in
      let aborted = ref 0 in
      let intact = ref true in
      for i = 0 to n_threads - 1 do
        let off = ctx_base + (i * (Cpu.Context.size_bytes + 8)) in
        let state = state_of_word (Pheap.read_u64 t.heap ~addr:off) in
        let buf = Bytes.create Cpu.Context.size_bytes in
        for w = 0 to (Cpu.Context.size_bytes / 8) - 1 do
          Bytes.set_int64_le buf (8 * w)
            (Pheap.read_u64 t.heap ~addr:(off + 8 + (8 * w)))
        done;
        let context = Cpu.Context.read buf ~off:0 in
        if not (Cpu.Context.equal context t.threads.(i).context) then
          intact := false;
        (match state with
        | Blocked_in_syscall _ ->
            (* The system call was against the dead kernel: abort it with
               a retryable failure; the thread resumes in user mode. *)
            incr aborted;
            t.threads.(i).state <- Running_user
        | Running_user -> t.threads.(i).state <- Running_user);
        t.threads.(i).context <- context
      done;
      let latency =
        Time.add kernel_boot (Time.mul handle_reestablish_latency n_handles)
      in
      {
        outcome = `Restored;
        syscalls_aborted = !aborted;
        handles_recreated = n_handles;
        handles_dangling = 0;
        restart_latency = latency;
        contexts_intact = !intact;
      }
