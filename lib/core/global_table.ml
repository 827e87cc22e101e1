type t = { slots : Bytes.t; mutable cardinal : int }

let create () =
  { slots = Bytes.make Fpx_tool.Exce.table_slots '\000'; cardinal = 0 }

let test_and_set t idx =
  if Bytes.get t.slots idx = '\000' then begin
    Bytes.set t.slots idx '\001';
    t.cardinal <- t.cardinal + 1;
    true
  end
  else false

let mem t idx = Bytes.get t.slots idx <> '\000'

let reset t idx =
  if Bytes.get t.slots idx <> '\000' then begin
    Bytes.set t.slots idx '\000';
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let clear t =
  Bytes.fill t.slots 0 (Bytes.length t.slots) '\000';
  t.cardinal <- 0

let merge a b =
  let t = create () in
  for idx = 0 to Bytes.length t.slots - 1 do
    if Bytes.get a.slots idx <> '\000' || Bytes.get b.slots idx <> '\000'
    then begin
      Bytes.set t.slots idx '\001';
      t.cardinal <- t.cardinal + 1
    end
  done;
  t
