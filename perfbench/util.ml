(* Small helpers shared by the load benchmark's modules: order
   statistics, a growable array, and CPU time read from /proc. *)

let now = Harness.Timer.now

(* Nearest-rank percentile ([p] in [0,1]) of an unsorted sample; 0.0 on
   an empty sample, so a layer that did no work reads as zero. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let median xs = percentile 0.5 xs

(* Append-only array: the workload sequences grow on demand. *)
module Grow = struct
  type 'a t = { mutable items : 'a array; mutable len : int }

  let create () = { items = [||]; len = 0 }
  let length t = t.len

  let push t x =
    if t.len = Array.length t.items then begin
      let bigger = Array.make (max 16 (2 * t.len)) x in
      Array.blit t.items 0 bigger 0 t.len;
      t.items <- bigger
    end;
    t.items.(t.len) <- x;
    t.len <- t.len + 1

  let get t i = t.items.(i)
  let to_array t = Array.sub t.items 0 t.len
end

(* User plus system CPU of one process in milliseconds, from
   /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks/s), and
   its parent pid (field 4).  [None] once the process is gone. *)
let proc_stat pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | line -> (
      (* The command name (field 2) may contain spaces; fields resume
         after its closing parenthesis. *)
      let rest =
        let i = String.rindex line ')' in
        String.sub line (i + 2) (String.length line - i - 2)
      in
      match String.split_on_char ' ' rest with
      | _state :: ppid :: fields -> (
          (* [fields] starts at field 5; utime is field 14. *)
          match List.filteri (fun i _ -> i = 9 || i = 10) fields with
          | [ utime; stime ] ->
              Some
                ( int_of_string ppid,
                  10.0 *. float_of_int (int_of_string utime + int_of_string stime) )
          | _ -> None)
      | _ -> None)

let cpu_ms pid = match proc_stat pid with Some (_, ms) -> ms | None -> 0.0

let children_of pid =
  Array.fold_left
    (fun acc name ->
      match int_of_string_opt name with
      | Some child -> (
          match proc_stat child with
          | Some (ppid, _) when ppid = pid -> child :: acc
          | _ -> acc)
      | None -> acc)
    [] (Sys.readdir "/proc")
  |> List.sort compare
