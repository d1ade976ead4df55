/* Negative test: each arm of a work-item-dependent branch holds its own
   barrier, so the two halves of the work-group wait at different
   barriers — every work-item reaches *a* barrier, but not the same one.
   Undefined behaviour in OpenCL, a hang on real hardware.

   Expected findings (groverc report / sanitize --local 16):
     static:  GRV-BARRIER-DIV  (barrier-check)
     dynamic: GRV-SAN-DIV      (launch aborts with barrier divergence)   */
__kernel void split_barrier(__global float *out, __global const float *in) {
  __local float tmp[16];
  int lx = get_local_id(0);
  tmp[lx] = in[lx];
  if (lx < 8) {
    barrier(CLK_LOCAL_MEM_FENCE);
    out[lx] = tmp[7 - lx];
  } else {
    barrier(CLK_LOCAL_MEM_FENCE);
    out[lx] = tmp[23 - lx];
  }
}
