(* Process and host readings from /proc, and a fixed reference loop.  The
   host figures are diagnostics: a slow run next to a high steal share or
   a slow reference loop points at the host, not the code. *)

(* /proc files report a length of 0, so read them line by line. *)
let read_proc path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_string b (input_line ic);
           Buffer.add_char b '\n'
         done
       with End_of_file -> ());
      Buffer.contents b)

let words s = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s))

(* Linux's user-visible clock tick (USER_HZ) is 100 on every mainstream
   architecture. *)
let ticks_per_second = 100.

(* User + system CPU seconds of process [pid], all threads. *)
let cpu_seconds pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name start at field 3. *)
  let close = String.rindex stat ')' in
  let rest = String.sub stat (close + 1) (String.length stat - close - 1) in
  match words rest with
  | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags :: _minflt
    :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
      (float_of_string utime +. float_of_string stime) /. ticks_per_second
  | _ -> failwith "unreadable /proc/<pid>/stat"

(* Peak resident set ([VmHWM]) of [pid], in MiB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' status)
  in
  match words (String.sub line 6 (String.length line - 6)) with
  | kb :: _ -> float_of_string kb /. 1024.
  | [] -> failwith "unreadable VmHWM"

(* Aggregate (steal, total) jiffies from the first line of /proc/stat. *)
let cpu_jiffies () =
  let first = List.hd (String.split_on_char '\n' (read_proc "/proc/stat")) in
  match words first with
  | "cpu" :: fields ->
      let v = List.map float_of_string fields in
      let total = List.fold_left ( +. ) 0. v in
      let steal = if List.length v > 7 then List.nth v 7 else 0. in
      (steal, total)
  | _ -> failwith "unreadable /proc/stat"

let sink = ref 0

(* A fixed pure-OCaml integer loop; its time tracks the host, not the
   code under test.  Milliseconds. *)
let ref_loop_ms () =
  let t0 = Serve.Clock.now () in
  let x = ref 0x2545F491 in
  for i = 1 to 10_000_000 do
    x := (!x lxor (!x lsl 13)) land 0x3FFFFFFF;
    x := !x lxor (!x lsr 7) lxor i
  done;
  sink := !sink + !x;
  1000. *. (Serve.Clock.now () -. t0)

type sample = { at_steal : float; at_total : float; loop_ms : float }

(* [~loop:false] reads /proc/stat only and leaves [loop_ms] at nan. *)
let sample ?(loop = true) () =
  let loop_ms = if loop then ref_loop_ms () else nan in
  let at_steal, at_total = cpu_jiffies () in
  { at_steal; at_total; loop_ms }

let steal_share a b =
  let total = b.at_total -. a.at_total in
  if total <= 0. then 0. else (b.at_steal -. a.at_steal) /. total
