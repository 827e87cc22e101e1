let table ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun a r -> max a (List.length r)) 0 all in
  let pad = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> pad.(i) <- max pad.(i) (String.length cell)))
    all;
  let render_row r =
    String.concat "  "
      (List.mapi (fun i cell -> Printf.sprintf "%-*s" pad.(i) cell) r)
  in
  let rule =
    String.concat "--"
      (Array.to_list (Array.map (fun w -> String.make w '-') pad))
  in
  String.concat "\n" (render_row header :: rule :: List.map render_row rows)
  ^ "\n"

let histogram ~title ~labels series =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  let max_count =
    List.fold_left
      (fun a (_, counts) -> List.fold_left max a counts)
      1 series
  in
  let scale = 40.0 /. float_of_int max_count in
  List.iteri
    (fun li label ->
      Buffer.add_string buf (Printf.sprintf "%s\n" label);
      List.iter
        (fun (name, counts) ->
          let n = List.nth counts li in
          let bar = String.make (int_of_float (float_of_int n *. scale)) '#' in
          Buffer.add_string buf (Printf.sprintf "  %-18s |%s %d\n" name bar n))
        series)
    labels;
  Buffer.contents buf

let scatter ~title ~xlabel ~ylabel points =
  let width = 56 and height = 24 in
  let lg x = Float.log (max x 1.0) /. Float.log 2.0 in
  let pts = List.map (fun (x, y) -> (lg x, lg y)) points in
  let hi =
    List.fold_left (fun a (x, y) -> Float.max a (Float.max x y)) 1.0 pts
  in
  let grid = Array.make_matrix height width ' ' in
  (* diagonal y = x *)
  for c = 0 to width - 1 do
    let r = height - 1 - (c * (height - 1) / (width - 1)) in
    grid.(r).(c) <- '/'
  done;
  List.iter
    (fun (x, y) ->
      let c = int_of_float (x /. hi *. float_of_int (width - 1)) in
      let r = height - 1 - int_of_float (y /. hi *. float_of_int (height - 1)) in
      let c = min (width - 1) (max 0 c) and r = min (height - 1) (max 0 r) in
      grid.(r).(c) <- (if grid.(r).(c) = '/' then '#' else 'o'))
    pts;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%s  (y: %s, x: %s; log2 scale, max=%.1f)\n"
                           title ylabel xlabel hi);
  Array.iter
    (fun row ->
      Buffer.add_string buf "  |";
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf ("  +" ^ String.make width '-' ^ "\n");
  Buffer.contents buf

let section name =
  let bar = String.make 72 '=' in
  Printf.sprintf "%s\n== %s\n%s\n" bar name bar
