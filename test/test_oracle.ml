(* The differential oracle suite: the one property of [Oracle] over the
   serving layer's whole configuration product, then a check that the run
   drew every value of every axis. Its own executable: it arms the global
   fault hooks, spawns submitter domains and binds sockets.

   [QCHECK_LONG=1] multiplies the case count by ten (the @ci run); a
   failing run prints its seed, and [QCHECK_SEED=<seed>] replays it. *)

let coverage () =
  match Oracle.missing_values () with
  | [] -> ()
  | missing -> Alcotest.failf "axis values never drawn: %s" (String.concat ", " missing)

let () =
  Alcotest.run "oracle"
    [
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest ~speed_level:`Quick (Oracle.property ());
          Alcotest.test_case "every value of every axis drawn" `Quick coverage;
        ] );
    ]
