module Db = Relational.Database
module Value = Relational.Value

let user_row ~uid ~is_friend =
  let cell attr =
    match attr with
    | "uid" -> Value.Str uid
    | "is_friend" -> Value.Bool is_friend
    | "timezone" -> Value.Int (String.length uid mod 24)
    | _ -> Value.Str (attr ^ "_of_" ^ uid)
  in
  Array.of_list (List.map cell Fb_schema.user_attrs)

let generic_row rel ~id ~uid ~is_friend =
  let r = Relational.Schema.find_exn Fb_schema.schema rel in
  let cell i attr =
    match attr with
    | "uid" -> Value.Str uid
    | "is_friend" -> Value.Bool is_friend
    | _ when i = 0 -> Value.Str id
    | "fan_count" | "size" | "created_time" | "start_time" | "end_time" | "timestamp" ->
      Value.Int (String.length id * 7)
    | "visible" -> Value.Bool true
    | _ -> Value.Str (attr ^ "_of_" ^ id)
  in
  Array.of_list (List.mapi cell r.Relational.Schema.attrs)

let database =
  let db = Db.create Fb_schema.schema in
  let users =
    [
      ("me", false); (* is_friend describes friendship with the principal *)
      ("alice", true);
      ("bob", true);
      ("carol", false); (* friend of alice: a friend-of-friend of me *)
      ("mallory", false); (* stranger *)
    ]
  in
  let db =
    List.fold_left
      (fun db (uid, is_friend) -> Db.insert db "User" (user_row ~uid ~is_friend))
      db users
  in
  let friendships =
    [
      ("me", "alice", true);
      ("me", "bob", true);
      ("alice", "me", true);
      ("bob", "me", true);
      ("alice", "carol", false);
      ("carol", "alice", false);
    ]
  in
  let db =
    List.fold_left
      (fun db (a, b, bf) ->
        Db.insert db "Friend" [| Value.Str a; Value.Str b; Value.Bool bf |])
      db friendships
  in
  let db =
    List.fold_left
      (fun db (id, uid, isf) -> Db.insert db "Page" (generic_row "Page" ~id ~uid ~is_friend:isf))
      db
      [ ("page_cats", "alice", true); ("page_ocaml", "me", false); ("page_jazz", "carol", false) ]
  in
  let db =
    List.fold_left
      (fun db (uid, page, isf) ->
        Db.insert db "Like"
          [| Value.Str uid; Value.Str page; Value.Int 1; Value.Bool isf |])
      db
      [ ("me", "page_ocaml", false); ("alice", "page_cats", true); ("bob", "page_cats", true) ]
  in
  let db =
    List.fold_left
      (fun db (id, uid, isf) ->
        Db.insert db "Photo" (generic_row "Photo" ~id ~uid ~is_friend:isf))
      db
      [ ("photo1", "me", false); ("photo2", "alice", true) ]
  in
  let db =
    List.fold_left
      (fun db (id, uid, isf) ->
        Db.insert db "Album" (generic_row "Album" ~id ~uid ~is_friend:isf))
      db
      [ ("album1", "me", false); ("album2", "bob", true) ]
  in
  let db =
    List.fold_left
      (fun db (id, uid, isf) ->
        Db.insert db "Event" (generic_row "Event" ~id ~uid ~is_friend:isf))
      db
      [ ("event1", "alice", true); ("event2", "mallory", false) ]
  in
  List.fold_left
    (fun db (id, uid, isf) ->
      Db.insert db "Checkin" (generic_row "Checkin" ~id ~uid ~is_friend:isf))
    db
    [ ("checkin1", "me", false); ("checkin2", "bob", true) ]
