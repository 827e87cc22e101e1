(** ML open-issue programs: CuMF-Movielens (ALS, 0/0 alpha), SRU-Example
    (uninitialised input tensor), cuML-HousePrice — plus the §5.2
    GMRES/cuSparse case-study program (not part of the 151). *)

val gmres_original : Workload.t
val all : Workload.t list
