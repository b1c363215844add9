! Unequal strides: S1 writes A[2*I], S2 reads A[4].  The two meet in
! iteration 2, where S2 must read the value S1 wrote in the same
! iteration: a loop-independent dependence on top of the carried ones.
DO I = 1, 10
  S1: A[2*I] = E[I] * E[I+1]
  S2: B[I] = A[4] + 1
ENDDO
