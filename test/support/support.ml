(* Helpers shared by the test suites. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [""] for a file that does not exist (yet). *)
let read_opt path = if Sys.file_exists path then read_file path else ""

(* A fresh journal base path, with its whole family and every per-shard
   family a test server could derive from it removed afterwards. *)
let with_tmp_base f =
  let base = Filename.temp_file "disclosure-test" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      Disclosure.Journal.remove_family base;
      for i = 0 to 7 do
        Disclosure.Journal.remove_family (Server.shard_journal base i)
      done)
    (fun () -> f base)
