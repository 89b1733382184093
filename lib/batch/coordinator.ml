(* Worker supervision for multi-process batch runs. See
   coordinator.mli. *)

type outcome = {
  quarantined : bool;
  respawns : int;
  failed : (int * string) list;
}

type slot = { worker : int; mutable spawned : int }

(* OCaml's Unix module numbers signals by its own internal scheme
   (Sys.sigkill = -7); translate the ones a supervisor actually sees. *)
let signal_name sg =
  if sg = Sys.sigkill then "SIGKILL"
  else if sg = Sys.sigterm then "SIGTERM"
  else if sg = Sys.sigint then "SIGINT"
  else if sg = Sys.sigsegv then "SIGSEGV"
  else if sg = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" sg

let describe_status = function
  | Unix.WEXITED code -> Printf.sprintf "exited %d" code
  | Unix.WSIGNALED sg -> Printf.sprintf "killed by %s" (signal_name sg)
  | Unix.WSTOPPED sg -> Printf.sprintf "stopped by %s" (signal_name sg)

let spawn argv =
  Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr

let rec wait_any () =
  match Unix.wait () with
  | pid, status -> (pid, status)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_any ()

(* Respawns per killed worker before it is reported failed. *)
let max_respawns = 10

let supervise ~argv ~workers () =
  if workers < 1 then invalid_arg "Coordinator.supervise: workers < 1";
  let live = Hashtbl.create workers in
  let quarantined = ref false in
  let respawns = ref 0 in
  let failed = ref [] in
  for i = 0 to workers - 1 do
    Hashtbl.replace live (spawn (argv i)) { worker = i; spawned = 1 }
  done;
  while Hashtbl.length live > 0 do
    let pid, status = wait_any () in
    match Hashtbl.find_opt live pid with
    | None -> () (* not one of ours (reaped a stray child) *)
    | Some slot -> (
        Hashtbl.remove live pid;
        match status with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED 2 -> quarantined := true
        | Unix.WEXITED _ ->
            (* An input error or an uncaught exception: the worker's
               job set is deterministic, so a respawn would repeat it. *)
            failed := (slot.worker, describe_status status) :: !failed
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
            (* Killed: the worker's journal already holds every
               completion it acknowledged, so a respawn with the same
               argv resumes rather than restarts. *)
            if slot.spawned > max_respawns then
              failed := (slot.worker, describe_status status) :: !failed
            else begin
              Printf.eprintf
                "[batch] worker %d %s; respawning (attempt %d/%d)\n%!"
                slot.worker (describe_status status) slot.spawned max_respawns;
              incr respawns;
              slot.spawned <- slot.spawned + 1;
              Hashtbl.replace live (spawn (argv slot.worker)) slot
            end)
  done;
  {
    quarantined = !quarantined;
    respawns = !respawns;
    failed = List.sort compare !failed;
  }
