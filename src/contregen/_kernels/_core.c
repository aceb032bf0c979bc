/* Compiled hot loops: BM25 impacts, and scoring with top-k selection.
 *
 * BM25 is split between index build and query time. At build, bm25_impacts
 * turns each posting's term frequency, in place, into its score contribution,
 * from its term's idf and its document's length normalization. A query is one
 * call, topk_indices(terms, n, k), on plain data: each query term's (document
 * indices, impacts, bound) tuple and the document count. It adds every
 * term's impacts, in query order, into a zeroed buffer of n of its own, then
 * picks the best k documents in one pass with a k-sized heap. Each term's
 * bound, its largest impact, lets the pure backend prune; this one ignores
 * it: at 50k documents the exhaustive pass here takes about 0.2 ms a
 * retrieval, pruning driven from Python several times that.
 *
 * The arithmetic here must stay expression-for-expression identical to
 * contregen/_kernels/fallback.py: rankings are verified bit-exactly against a
 * brute-force scorer, and the pure and compiled backends must be
 * interchangeable. Build with -ffp-contract=off (no fused multiply-add) and do
 * not reorder the float operations. Selection only compares scores, so its
 * result is exact.
 *
 * Arguments arrive through the buffer protocol (array("d") / array("i") or any
 * C-contiguous buffer of the same item type). Every document index is checked
 * against the buffer it addresses before anything is written through it.
 * bm25_impacts checks them all first, so a rejected call leaves the caller's
 * array untouched; topk_indices checks each as it adds, into its own buffer.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Acquire a C-contiguous buffer of native doubles ('d') or ints ('i'). */
static int
get_buffer(PyObject *obj, Py_buffer *view, char type, int writable,
           const char *name)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *fmt = view->format;
    if (fmt[0] == '@')
        fmt++;
    Py_ssize_t itemsize = type == 'd' ? (Py_ssize_t)sizeof(double)
                                      : (Py_ssize_t)sizeof(int);
    if (view->ndim != 1 || fmt[0] != type || fmt[1] != '\0'
            || view->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-d buffer of type '%c'",
                     name, type);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* 0 if every doc[i] lies in [0, limit), limit being the length of doc_norms;
 * otherwise IndexError naming the first that does not. The scan has no branch but its loop's: a test that exits
 * early made the check's speed swing with where the compiler placed it. A
 * negative index, cast to unsigned, lies past any limit an int can reach. */
static int
check_indices(const int *doc, Py_ssize_t n, Py_ssize_t limit)
{
    unsigned int end = limit > INT_MAX ? (unsigned int)INT_MAX + 1u : (unsigned int)limit;
    unsigned int bad = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        bad |= (unsigned int)doc[i] >= end;
    if (!bad)
        return 0;
    Py_ssize_t i = 0;
    while ((unsigned int)doc[i] < end)
        i++;
    PyErr_Format(PyExc_IndexError, "document index %d out of range (doc_norms %zd)",
                 doc[i], limit);
    return -1;
}

PyDoc_STRVAR(bm25_impacts_doc,
"bm25_impacts(weights, doc_indices, doc_norms, idf, k1)\n--\n\n"
"Turn each posting's term frequency into its BM25 contribution, in place.\n\n"
"weights[i] = idf * (tf * (k1 + 1) / (tf + doc_norms[d])) for posting i\n"
"(document d, term frequency tf = weights[i] on entry); doc_norms[d] is the\n"
"document's length normalization k1 * (1 - b + b * dl / avgdl).");

static PyObject *
bm25_impacts(PyObject *module, PyObject *args)
{
    PyObject *weights_obj, *indices_obj, *norms_obj;
    double idf, k1;
    if (!PyArg_ParseTuple(args, "OOOdd:bm25_impacts", &weights_obj,
                          &indices_obj, &norms_obj, &idf, &k1))
        return NULL;

    PyObject *result = NULL;
    Py_buffer weights, indices, norms;
    if (get_buffer(weights_obj, &weights, 'd', 1, "weights") < 0)
        return NULL;
    if (get_buffer(indices_obj, &indices, 'i', 0, "doc_indices") < 0)
        goto release_weights;
    if (get_buffer(norms_obj, &norms, 'd', 0, "doc_norms") < 0)
        goto release_indices;

    Py_ssize_t n = indices.shape[0];
    if (weights.shape[0] != n) {
        PyErr_SetString(PyExc_ValueError, "weights and doc_indices differ in length");
        goto release_norms;
    }
    double *weight = (double *)weights.buf;
    const int *doc = (const int *)indices.buf;
    const double *norm = (const double *)norms.buf;
    if (check_indices(doc, n, norms.shape[0]) < 0)
        goto release_norms;
    double k1_plus_1 = k1 + 1.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        double t = weight[i];
        weight[i] = idf * (t * k1_plus_1 / (t + norm[doc[i]]));
    }
    result = Py_NewRef(Py_None);

release_norms:
    PyBuffer_Release(&norms);
release_indices:
    PyBuffer_Release(&indices);
release_weights:
    PyBuffer_Release(&weights);
    return result;
}

/* A document and its score, as the selection heap holds them. */
typedef struct {
    double score;
    Py_ssize_t index;
} scored;

/* a ranks below b in the order (-score, index): a lower score, or an equal
 * score at a higher index. The heap keeps its lowest-ranked entry on top. */
static inline int
ranks_below(scored a, scored b)
{
    return a.score < b.score || (a.score == b.score && a.index > b.index);
}

static void
sift_up(scored *heap, Py_ssize_t at)
{
    scored item = heap[at];
    while (at > 0) {
        Py_ssize_t parent = (at - 1) / 2;
        if (!ranks_below(item, heap[parent]))
            break;
        heap[at] = heap[parent];
        at = parent;
    }
    heap[at] = item;
}

static void
sift_down(scored *heap, Py_ssize_t size, Py_ssize_t at)
{
    scored item = heap[at];
    for (;;) {
        Py_ssize_t child = 2 * at + 1;
        if (child >= size)
            break;
        if (child + 1 < size && ranks_below(heap[child + 1], heap[child]))
            child++;
        if (!ranks_below(heap[child], item))
            break;
        heap[at] = heap[child];
        at = child;
    }
    heap[at] = item;
}

/* Add each term's impacts into score[0..n), in query order, checking each
 * index as it goes: score is the caller's scratch buffer, so what a rejected
 * term already added is thrown away with it. */
static int
scatter_terms(PyObject *terms, double *score, Py_ssize_t n)
{
    /* a negative index, cast to unsigned, lies past any n an int can reach */
    unsigned int end = n > INT_MAX ? (unsigned int)INT_MAX + 1u : (unsigned int)n;
    for (Py_ssize_t t = 0; t < PyTuple_GET_SIZE(terms); t++) {
        PyObject *term = PyTuple_GET_ITEM(terms, t);
        PyObject *indices_obj, *impacts_obj;
        double bound;  /* parsed so that a bad one fails here too; unused */
        /* a tuple's items, borrowed here, live as long as it does */
        if (!PyTuple_Check(term)) {
            PyErr_SetString(PyExc_TypeError, "a term must be a tuple");
            return -1;
        }
        if (!PyArg_Parse(term, "(OOd)", &indices_obj, &impacts_obj, &bound))
            return -1;
        Py_buffer indices, impacts;
        if (get_buffer(indices_obj, &indices, 'i', 0, "doc_indices") < 0)
            return -1;
        if (get_buffer(impacts_obj, &impacts, 'd', 0, "impacts") < 0) {
            PyBuffer_Release(&indices);
            return -1;
        }
        int status = -1;
        Py_ssize_t m = indices.shape[0];
        const int *doc = (const int *)indices.buf;
        const double *impact = (const double *)impacts.buf;
        if (impacts.shape[0] != m)
            PyErr_SetString(PyExc_ValueError, "doc_indices and impacts differ in length");
        else {
            Py_ssize_t i = 0;
            for (; i < m && (unsigned int)doc[i] < end; i++)
                score[doc[i]] += impact[i];
            if (i == m)
                status = 0;
            else
                PyErr_Format(PyExc_IndexError,
                             "document index %d out of range (scores %zd)", doc[i], n);
        }
        PyBuffer_Release(&impacts);
        PyBuffer_Release(&indices);
        if (status < 0)
            return -1;
    }
    return 0;
}

/* (index, score) pairs of the k highest positive of score[0..n), ordered by
 * (-score, index). */
static PyObject *
select_topk(const double *score, Py_ssize_t n, Py_ssize_t k)
{
    Py_ssize_t cap = k < n ? k : n;
    scored *heap = PyMem_Malloc((size_t)cap * sizeof(scored));  /* 0 bytes is not NULL */
    if (heap == NULL)
        return PyErr_NoMemory();
    Py_ssize_t size = 0;
    double threshold = 0.0;  /* a score must pass it to enter: 0, then the heap's lowest */
    for (Py_ssize_t i = 0; i < n; i++) {
        double s = score[i];
        if (!(s > threshold))
            continue;
        if (size < cap) {
            heap[size] = (scored){s, i};
            sift_up(heap, size++);
        }
        else {
            /* i is past every index in the heap: an equal score ranks below */
            heap[0] = (scored){s, i};
            sift_down(heap, size, 0);
        }
        if (size == cap)
            threshold = heap[0].score;
    }
    PyObject *result = PyList_New(size);
    /* popping the lowest-ranked entry first fills the list from its end */
    while (result != NULL && size > 0) {
        PyObject *pair = Py_BuildValue("(nd)", heap[0].index, heap[0].score);
        if (pair == NULL) {
            Py_CLEAR(result);
            break;
        }
        PyList_SET_ITEM(result, --size, pair);
        heap[0] = heap[size];
        sift_down(heap, size, 0);
    }
    PyMem_Free(heap);
    return result;
}

PyDoc_STRVAR(topk_indices_doc,
"topk_indices(terms, n, k)\n--\n\n"
"(index, score) pairs of the k highest positive scores over n documents,\n"
"ordered by (-score, index), of the query terms in terms: a sequence of\n"
"(doc_indices, impacts, bound) tuples, added in query order.");

static PyObject *
topk_indices(PyObject *module, PyObject *args)
{
    PyObject *terms_obj;
    Py_ssize_t n, k;
    if (!PyArg_ParseTuple(args, "Onn:topk_indices", &terms_obj, &n, &k))
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "n must be >= 0");
        return NULL;
    }
    if (k < 1) {
        PyErr_SetString(PyExc_ValueError, "k must be >= 1");
        return NULL;
    }
    /* a copy: nothing a buffer export runs can change the terms under the loop */
    PyObject *terms = PySequence_Tuple(terms_obj);
    if (terms == NULL)
        return NULL;

    PyObject *result = NULL;
    double *score = PyMem_Calloc((size_t)n, sizeof(double));  /* 0 bytes is not NULL */
    if (score == NULL)
        PyErr_NoMemory();
    else if (scatter_terms(terms, score, n) == 0)
        result = select_topk(score, n, k);
    PyMem_Free(score);
    Py_DECREF(terms);
    return result;
}

static PyMethodDef core_methods[] = {
    {"bm25_impacts", bm25_impacts, METH_VARARGS, bm25_impacts_doc},
    {"topk_indices", topk_indices, METH_VARARGS, topk_indices_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "contregen._kernels._core",
    .m_doc = "Compiled BM25 impact and scoring with top-k selection kernels; "
             "see fallback.py.",
    .m_size = 0,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    return PyModule_Create(&core_module);
}
