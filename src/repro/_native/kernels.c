/* Compiled kernel tier: the three dominant inner loops of the batched
 * engines, bit-identical to their numpy references.
 *
 * Each function replaces exactly one loop of the Python tier -- the
 * gapless striped scan of ``repro.align.batch._gapless_side_batch``, the
 * banded-DP wavefront of ``_banded_side_batch`` and the lockstep walk
 * advance of ``repro.core.batch._lockstep_walk`` -- while orientation
 * folding, gather geometry, scratch management and accounting stay in
 * Python.  The contract is *element-wise identity* with the numpy tier
 * (which is itself property-tested against the scalar references), so
 * every computation below follows the reference order of operations: the
 * running-max-before-drop check, first-occurrence argmax tie-breaking,
 * kill-after-best-update, slot-0 candidate preference.
 *
 * All inputs arrive as well-typed contiguous arrays from the Python
 * dispatch layer; the kernels still clamp every gather index (mirroring
 * numpy's ``mode="clip"``) so garbage geometry cannot read out of
 * bounds.  The GIL is released around every per-pair loop -- the thread
 * executor overlaps rank steps exactly as it does for the numpy tier.
 */

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#define PY_SSIZE_T_CLEAN

#include <Python.h>
#include <numpy/arrayobject.h>
#include <stdlib.h>

/* Dead-cell sentinel of the banded kernels (mirrors ``_NEG``). */
#define KNEG (-((npy_int64)1 << 40))

static PyArrayObject *
as_array(PyObject *obj, int typenum, int ndim, const char *name)
{
    PyArrayObject *arr = (PyArrayObject *)PyArray_FROM_OTF(
        obj, typenum, NPY_ARRAY_IN_ARRAY);
    if (arr == NULL)
        return NULL;
    if (PyArray_NDIM(arr) != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must be %d-dimensional, got %d",
                     name, ndim, PyArray_NDIM(arr));
        Py_DECREF(arr);
        return NULL;
    }
    return arr;
}

/* -- gapless scan -------------------------------------------------------
 *
 * gapless_scan(buffer, pool, base_a, sign_a, base_b, sign_b, n,
 *              x, match, mismatch) -> (steps, score)
 *
 * Pair p extends over ``t < n[p]`` reading ``buffer[base_a + sign_a*t]``
 * against ``pool[base_b + sign_b*t]`` (the caller already folded the
 * reverse-complement into pool/base_b).  Per position: accumulate the
 * match/mismatch step, stop at the first position whose drop below the
 * running max exceeds x (that position excluded), and report the first
 * position achieving the window maximum -- exactly the scalar
 * ``_gapless_one_side`` and the striped numpy kernel.
 */
static PyObject *
gapless_scan(PyObject *self, PyObject *args)
{
    PyObject *buffer_o, *pool_o, *base_a_o, *sign_a_o, *base_b_o, *sign_b_o,
        *n_o;
    long long x, match, mismatch;
    PyArrayObject *buffer = NULL, *pool = NULL, *base_a = NULL,
        *sign_a = NULL, *base_b = NULL, *sign_b = NULL, *n = NULL,
        *steps = NULL, *score = NULL;

    if (!PyArg_ParseTuple(args, "OOOOOOOLLL", &buffer_o, &pool_o, &base_a_o,
                          &sign_a_o, &base_b_o, &sign_b_o, &n_o, &x, &match,
                          &mismatch))
        return NULL;

    buffer = as_array(buffer_o, NPY_UINT8, 1, "buffer");
    pool = as_array(pool_o, NPY_UINT8, 1, "pool");
    base_a = as_array(base_a_o, NPY_INT64, 1, "base_a");
    sign_a = as_array(sign_a_o, NPY_INT64, 1, "sign_a");
    base_b = as_array(base_b_o, NPY_INT64, 1, "base_b");
    sign_b = as_array(sign_b_o, NPY_INT64, 1, "sign_b");
    n = as_array(n_o, NPY_INT64, 1, "n");
    if (!buffer || !pool || !base_a || !sign_a || !base_b || !sign_b || !n)
        goto fail;

    {
        npy_intp npairs = PyArray_DIM(n, 0);
        if (PyArray_DIM(base_a, 0) != npairs || PyArray_DIM(sign_a, 0) != npairs
            || PyArray_DIM(base_b, 0) != npairs
            || PyArray_DIM(sign_b, 0) != npairs) {
            PyErr_SetString(PyExc_ValueError,
                            "gapless_scan: mismatched pair-array lengths");
            goto fail;
        }
        steps = (PyArrayObject *)PyArray_ZEROS(1, &npairs, NPY_INT64, 0);
        score = (PyArrayObject *)PyArray_ZEROS(1, &npairs, NPY_INT64, 0);
        if (!steps || !score)
            goto fail;

        {
            const npy_uint8 *buf = (const npy_uint8 *)PyArray_DATA(buffer);
            const npy_uint8 *pl = (const npy_uint8 *)PyArray_DATA(pool);
            const npy_int64 *ba = (const npy_int64 *)PyArray_DATA(base_a);
            const npy_int64 *sa = (const npy_int64 *)PyArray_DATA(sign_a);
            const npy_int64 *bb = (const npy_int64 *)PyArray_DATA(base_b);
            const npy_int64 *sb = (const npy_int64 *)PyArray_DATA(sign_b);
            const npy_int64 *len = (const npy_int64 *)PyArray_DATA(n);
            npy_int64 *steps_out = (npy_int64 *)PyArray_DATA(steps);
            npy_int64 *score_out = (npy_int64 *)PyArray_DATA(score);
            npy_int64 buf_hi = (npy_int64)PyArray_DIM(buffer, 0) - 1;
            npy_int64 pool_hi = (npy_int64)PyArray_DIM(pool, 0) - 1;
            npy_intp p;

            if (buf_hi < 0)
                buf_hi = 0;
            if (pool_hi < 0)
                pool_hi = 0;
            Py_BEGIN_ALLOW_THREADS
            for (p = 0; p < npairs; p++) {
                npy_int64 np_ = len[p];
                npy_int64 s = 0;
                /* "no best yet": any real cumsum beats it, and the drop
                 * check never sees it (runmax is s until best updates) */
                npy_int64 best = KNEG;
                npy_int64 best_idx = 0;
                npy_int64 t, ia, ib, runmax;

                for (t = 0; t < np_; t++) {
                    ia = ba[p] + sa[p] * t;
                    ib = bb[p] + sb[p] * t;
                    if (ia < 0)
                        ia = 0;
                    else if (ia > buf_hi)
                        ia = buf_hi;
                    if (ib < 0)
                        ib = 0;
                    else if (ib > pool_hi)
                        ib = pool_hi;
                    s += (buf[ia] == pl[ib]) ? match : mismatch;
                    runmax = best > s ? best : s;
                    if (runmax - s > x)
                        break; /* drop fires here: position t excluded */
                    if (s > best) {
                        best = s;
                        best_idx = t;
                    }
                }
                if (best > 0) {
                    steps_out[p] = best_idx + 1;
                    score_out[p] = best;
                }
            }
            Py_END_ALLOW_THREADS
        }
    }

    Py_DECREF(buffer);
    Py_DECREF(pool);
    Py_DECREF(base_a);
    Py_DECREF(sign_a);
    Py_DECREF(base_b);
    Py_DECREF(sign_b);
    Py_DECREF(n);
    return Py_BuildValue("NN", steps, score);

fail:
    Py_XDECREF(buffer);
    Py_XDECREF(pool);
    Py_XDECREF(base_a);
    Py_XDECREF(sign_a);
    Py_XDECREF(base_b);
    Py_XDECREF(sign_b);
    Py_XDECREF(n);
    Py_XDECREF(steps);
    Py_XDECREF(score);
    return NULL;
}

/* -- banded-DP wavefront ------------------------------------------------
 *
 * banded_batch(amat, bmat, na, nb, x, match, mismatch, gap, band)
 *     -> (best_i, best_j, best_score)
 *
 * Per pair: the antidiagonal DP of ``_banded_one_side`` over gathered
 * (already oriented) code matrices.  Slot w holds offset d = w - band;
 * antidiagonal s visits (i, j) with i + j == s.  Order of operations
 * mirrors the reference exactly: compute every slot, update the best
 * from the first-argmax cell, kill cells below best - x with the
 * *updated* best, and stop after two consecutive antidiagonals without a
 * live cell (a diagonal move still reaches s + 1 from a live s - 1).
 */
static PyObject *
banded_batch(PyObject *self, PyObject *args)
{
    PyObject *amat_o, *bmat_o, *na_o, *nb_o;
    long long x, match, mismatch, gap;
    long band;
    PyArrayObject *amat = NULL, *bmat = NULL, *na = NULL, *nb = NULL,
        *best_i = NULL, *best_j = NULL, *best_score = NULL;
    npy_int64 *work = NULL;

    if (!PyArg_ParseTuple(args, "OOOOLLLLl", &amat_o, &bmat_o, &na_o, &nb_o,
                          &x, &match, &mismatch, &gap, &band))
        return NULL;
    if (band < 0) {
        PyErr_SetString(PyExc_ValueError, "banded_batch: band must be >= 0");
        return NULL;
    }

    amat = as_array(amat_o, NPY_UINT8, 2, "amat");
    bmat = as_array(bmat_o, NPY_UINT8, 2, "bmat");
    na = as_array(na_o, NPY_INT64, 1, "na");
    nb = as_array(nb_o, NPY_INT64, 1, "nb");
    if (!amat || !bmat || !na || !nb)
        goto fail;

    {
        npy_intp npairs = PyArray_DIM(na, 0);
        npy_int64 width = 2 * (npy_int64)band + 1;

        if (PyArray_DIM(nb, 0) != npairs || PyArray_DIM(amat, 0) != npairs
            || PyArray_DIM(bmat, 0) != npairs) {
            PyErr_SetString(PyExc_ValueError,
                            "banded_batch: mismatched pair-array lengths");
            goto fail;
        }
        best_i = (PyArrayObject *)PyArray_ZEROS(1, &npairs, NPY_INT64, 0);
        best_j = (PyArrayObject *)PyArray_ZEROS(1, &npairs, NPY_INT64, 0);
        best_score = (PyArrayObject *)PyArray_ZEROS(1, &npairs, NPY_INT64, 0);
        work = (npy_int64 *)malloc((size_t)(3 * width) * sizeof(npy_int64));
        if (!best_i || !best_j || !best_score || !work) {
            if (!work)
                PyErr_NoMemory();
            goto fail;
        }

        {
            const npy_uint8 *adata = (const npy_uint8 *)PyArray_DATA(amat);
            const npy_uint8 *bdata = (const npy_uint8 *)PyArray_DATA(bmat);
            npy_int64 acols = (npy_int64)PyArray_DIM(amat, 1);
            npy_int64 bcols = (npy_int64)PyArray_DIM(bmat, 1);
            const npy_int64 *na_arr = (const npy_int64 *)PyArray_DATA(na);
            const npy_int64 *nb_arr = (const npy_int64 *)PyArray_DATA(nb);
            npy_int64 *bi_out = (npy_int64 *)PyArray_DATA(best_i);
            npy_int64 *bj_out = (npy_int64 *)PyArray_DATA(best_j);
            npy_int64 *bs_out = (npy_int64 *)PyArray_DATA(best_score);
            npy_intp p;

            Py_BEGIN_ALLOW_THREADS
            for (p = 0; p < npairs; p++) {
                npy_int64 na_p = na_arr[p];
                npy_int64 nb_p = nb_arr[p];
                const npy_uint8 *arow = adata + (size_t)p * (size_t)acols;
                const npy_uint8 *brow = bdata + (size_t)p * (size_t)bcols;
                npy_int64 *prev = work;
                npy_int64 *prev2 = work + width;
                npy_int64 *cur = work + 2 * width;
                npy_int64 best = 0, bi = 0, bj = 0;
                npy_int64 s, w, max_anti;
                int dead_run = 0;

                if (na_p <= 0 || nb_p <= 0)
                    continue;
                for (w = 0; w < width; w++) {
                    prev[w] = KNEG;
                    prev2[w] = KNEG;
                }
                prev[band] = 0; /* empty extension */
                max_anti = na_p + nb_p;
                for (s = 1; s <= max_anti; s++) {
                    int alive = 0;
                    npy_int64 round_best = KNEG;
                    npy_int64 round_pos = -1;
                    npy_int64 *tmp;

                    for (w = 0; w < width; w++) {
                        npy_int64 i2 = s + (w - (npy_int64)band);
                        npy_int64 curw = KNEG;

                        if (i2 >= 0 && (i2 & 1) == 0) {
                            npy_int64 i = i2 >> 1;
                            npy_int64 j = s - i;

                            if (j >= 0 && i <= na_p && j <= nb_p) {
                                npy_int64 fd = (w >= 1) ? prev[w - 1] : KNEG;
                                npy_int64 fi =
                                    (w < width - 1) ? prev[w + 1] : KNEG;
                                npy_int64 gb = fd > fi ? fd : fi;
                                npy_int64 gs = (gb > KNEG) ? gb + gap : KNEG;
                                npy_int64 ds = KNEG;

                                if (i >= 1 && j >= 1 && prev2[w] > KNEG) {
                                    npy_int64 sub =
                                        (arow[i - 1] == brow[j - 1])
                                            ? match
                                            : mismatch;
                                    ds = prev2[w] + sub;
                                }
                                curw = gs > ds ? gs : ds;
                            }
                        }
                        cur[w] = curw;
                        if (curw > round_best) {
                            round_best = curw;
                            round_pos = w;
                        }
                    }
                    if (round_best > best) {
                        npy_int64 i = (s + (round_pos - (npy_int64)band)) >> 1;

                        best = round_best;
                        bi = i;
                        bj = s - i;
                    }
                    for (w = 0; w < width; w++) {
                        if (cur[w] < best - x)
                            cur[w] = KNEG;
                        if (cur[w] > KNEG)
                            alive = 1;
                    }
                    dead_run = alive ? 0 : dead_run + 1;
                    if (dead_run == 2)
                        break;
                    tmp = prev2;
                    prev2 = prev;
                    prev = cur;
                    cur = tmp;
                }
                bi_out[p] = bi;
                bj_out[p] = bj;
                bs_out[p] = best;
            }
            Py_END_ALLOW_THREADS
        }
    }

    free(work);
    Py_DECREF(amat);
    Py_DECREF(bmat);
    Py_DECREF(na);
    Py_DECREF(nb);
    return Py_BuildValue("NNN", best_i, best_j, best_score);

fail:
    free(work);
    Py_XDECREF(amat);
    Py_XDECREF(bmat);
    Py_XDECREF(na);
    Py_XDECREF(nb);
    Py_XDECREF(best_i);
    Py_XDECREF(best_j);
    Py_XDECREF(best_score);
    return NULL;
}

/* -- lockstep walk rounds -----------------------------------------------
 *
 * walk_rounds(n0, n1, sb0, sb1, d0, d1, pre0, pre1, post0, post1, deg,
 *             visited, starts)
 *     -> (n_edges, truncated, src, dst, dir, pre, post)
 *
 * ``starts`` holds at most one vertex per component (the driver's
 * invariant), so walks never contend for a vertex and traversing each
 * walk to completion reproduces the lockstep rounds exactly -- including
 * the shared ``visited`` array, which is mutated **in place** (it must
 * be a C-contiguous bool array) and carries across rounds like the numpy
 * tier's.  Steps come out walk-major in time order, the flattening the
 * numpy tier reaches via its stable argsort.
 */
static PyObject *
walk_rounds(PyObject *self, PyObject *args)
{
    PyObject *arr_objs[11];
    PyObject *visited_o, *starts_o;
    PyArrayObject *arrs[11];
    PyArrayObject *starts = NULL, *n_edges = NULL, *truncated = NULL;
    PyArrayObject *out[5] = {NULL, NULL, NULL, NULL, NULL};
    npy_int64 *tmp = NULL;
    int k;

    for (k = 0; k < 11; k++)
        arrs[k] = NULL;
    if (!PyArg_ParseTuple(args, "OOOOOOOOOOOOO", &arr_objs[0], &arr_objs[1],
                          &arr_objs[2], &arr_objs[3], &arr_objs[4],
                          &arr_objs[5], &arr_objs[6], &arr_objs[7],
                          &arr_objs[8], &arr_objs[9], &arr_objs[10],
                          &visited_o, &starts_o))
        return NULL;

    /* the visited array is mutated in place across rounds; a converting
     * copy would silently discard those marks, so require the exact
     * layout instead of coercing */
    if (!PyArray_Check(visited_o)
        || PyArray_TYPE((PyArrayObject *)visited_o) != NPY_BOOL
        || PyArray_NDIM((PyArrayObject *)visited_o) != 1
        || !PyArray_IS_C_CONTIGUOUS((PyArrayObject *)visited_o)) {
        PyErr_SetString(PyExc_ValueError,
                        "walk_rounds: visited must be a 1-D C-contiguous "
                        "bool array (mutated in place)");
        return NULL;
    }

    {
        static const char *names[11] = {
            "n0", "n1", "sb0", "sb1", "d0", "d1",
            "pre0", "pre1", "post0", "post1", "deg",
        };
        npy_intp nv;

        for (k = 0; k < 11; k++) {
            arrs[k] = as_array(arr_objs[k], NPY_INT64, 1, names[k]);
            if (!arrs[k])
                goto fail;
        }
        starts = as_array(starts_o, NPY_INT64, 1, "starts");
        if (!starts)
            goto fail;

        nv = PyArray_DIM(arrs[0], 0);
        for (k = 1; k < 11; k++) {
            if (PyArray_DIM(arrs[k], 0) != nv) {
                PyErr_Format(PyExc_ValueError,
                             "walk_rounds: %s length %ld != %ld", names[k],
                             (long)PyArray_DIM(arrs[k], 0), (long)nv);
                goto fail;
            }
        }
        if (PyArray_DIM((PyArrayObject *)visited_o, 0) != nv) {
            PyErr_SetString(PyExc_ValueError,
                            "walk_rounds: visited length mismatch");
            goto fail;
        }

        {
            npy_intp K = PyArray_DIM(starts, 0);
            const npy_int64 *st = (const npy_int64 *)PyArray_DATA(starts);
            const npy_int64 *n0 = (const npy_int64 *)PyArray_DATA(arrs[0]);
            const npy_int64 *n1 = (const npy_int64 *)PyArray_DATA(arrs[1]);
            const npy_int64 *sb0 = (const npy_int64 *)PyArray_DATA(arrs[2]);
            const npy_int64 *sb1 = (const npy_int64 *)PyArray_DATA(arrs[3]);
            const npy_int64 *d0 = (const npy_int64 *)PyArray_DATA(arrs[4]);
            const npy_int64 *d1 = (const npy_int64 *)PyArray_DATA(arrs[5]);
            const npy_int64 *pre0 = (const npy_int64 *)PyArray_DATA(arrs[6]);
            const npy_int64 *pre1 = (const npy_int64 *)PyArray_DATA(arrs[7]);
            const npy_int64 *post0 = (const npy_int64 *)PyArray_DATA(arrs[8]);
            const npy_int64 *post1 = (const npy_int64 *)PyArray_DATA(arrs[9]);
            const npy_int64 *deg = (const npy_int64 *)PyArray_DATA(arrs[10]);
            npy_bool *visited =
                (npy_bool *)PyArray_DATA((PyArrayObject *)visited_o);
            npy_int64 *ne_out, *src_t, *dst_t, *dir_t, *pre_t, *post_t;
            npy_bool *tr_out;
            npy_int64 total = 0;
            int bad_start = 0, overflow = 0;
            npy_intp w;

            n_edges = (PyArrayObject *)PyArray_ZEROS(1, &K, NPY_INT64, 0);
            truncated = (PyArrayObject *)PyArray_ZEROS(1, &K, NPY_BOOL, 0);
            /* every step marks a distinct previously-unvisited vertex, so
             * one call can take at most nv steps total */
            tmp = (npy_int64 *)malloc(
                (size_t)(5 * (nv > 0 ? nv : 1)) * sizeof(npy_int64));
            if (!n_edges || !truncated || !tmp) {
                if (!tmp)
                    PyErr_NoMemory();
                goto fail;
            }
            ne_out = (npy_int64 *)PyArray_DATA(n_edges);
            tr_out = (npy_bool *)PyArray_DATA(truncated);
            src_t = tmp;
            dst_t = tmp + nv;
            dir_t = tmp + 2 * nv;
            pre_t = tmp + 3 * nv;
            post_t = tmp + 4 * nv;

            Py_BEGIN_ALLOW_THREADS
            for (w = 0; w < K; w++) {
                if (st[w] < 0 || st[w] >= (npy_int64)nv) {
                    bad_start = 1;
                    break;
                }
                visited[st[w]] = NPY_TRUE;
            }
            if (!bad_start) {
                for (w = 0; w < K; w++) {
                    npy_int64 c = st[w];
                    npy_int64 e = -1; /* entered-through end bit; <0 unknown */
                    npy_int64 count = 0;

                    for (;;) {
                        npy_int64 v0 = n0[c], v1 = n1[c];
                        int un0 = v0 >= 0 && v0 < (npy_int64)nv
                                  && !visited[v0];
                        int un1 = v1 >= 0 && v1 < (npy_int64)nv
                                  && !visited[v1];
                        int ok0 = un0 && (e < 0 || sb0[c] != e);
                        int ok1 = un1 && (e < 0 || sb1[c] != e);
                        int take1;
                        npy_int64 nd, dd;

                        if (!ok0 && !ok1) {
                            tr_out[w] = (deg[c] == 2 && e >= 0
                                         && (un0 || un1))
                                            ? NPY_TRUE
                                            : NPY_FALSE;
                            break;
                        }
                        if (total >= (npy_int64)nv) {
                            overflow = 1;
                            break;
                        }
                        take1 = ok1 && !ok0;
                        nd = take1 ? v1 : v0;
                        dd = take1 ? d1[c] : d0[c];
                        src_t[total] = c;
                        dst_t[total] = nd;
                        dir_t[total] = dd;
                        pre_t[total] = take1 ? pre1[c] : pre0[c];
                        post_t[total] = take1 ? post1[c] : post0[c];
                        total++;
                        count++;
                        visited[nd] = NPY_TRUE;
                        e = dd & 1;
                        c = nd;
                    }
                    ne_out[w] = count;
                    if (overflow)
                        break;
                }
            }
            Py_END_ALLOW_THREADS

            if (bad_start) {
                PyErr_SetString(PyExc_ValueError,
                                "walk_rounds: start vertex out of range");
                goto fail;
            }
            if (overflow) {
                PyErr_SetString(PyExc_ValueError,
                                "walk_rounds: step count exceeded vertex "
                                "count (inconsistent walk tables)");
                goto fail;
            }

            {
                npy_int64 *flats[5] = {src_t, dst_t, dir_t, pre_t, post_t};
                npy_intp total_p = (npy_intp)total;
                int f;

                for (f = 0; f < 5; f++) {
                    out[f] = (PyArrayObject *)PyArray_EMPTY(
                        1, &total_p, NPY_INT64, 0);
                    if (!out[f])
                        goto fail;
                    if (total)
                        memcpy(PyArray_DATA(out[f]), flats[f],
                               (size_t)total * sizeof(npy_int64));
                }
            }
        }
    }

    free(tmp);
    for (k = 0; k < 11; k++)
        Py_DECREF(arrs[k]);
    Py_DECREF(starts);
    return Py_BuildValue("NNNNNNN", n_edges, truncated, out[0], out[1],
                         out[2], out[3], out[4]);

fail:
    free(tmp);
    for (k = 0; k < 11; k++)
        Py_XDECREF(arrs[k]);
    Py_XDECREF(starts);
    Py_XDECREF(n_edges);
    Py_XDECREF(truncated);
    for (k = 0; k < 5; k++)
        Py_XDECREF(out[k]);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"gapless_scan", gapless_scan, METH_VARARGS,
     "Batched gapless x-drop scan (bit-identical to the numpy tier)."},
    {"banded_batch", banded_batch, METH_VARARGS,
     "Batched banded-DP x-drop wavefront (bit-identical to the numpy "
     "tier)."},
    {"walk_rounds", walk_rounds, METH_VARARGS,
     "One lockstep-walk round over a degree-<=2 graph (bit-identical to "
     "the numpy tier; mutates `visited` in place)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native._kernels",
    "Compiled inner loops of the batched alignment and contig engines.",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    import_array();
    return PyModule_Create(&kernels_module);
}
