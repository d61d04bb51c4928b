/* toursplit._core, the compiled solver kernels, built optionally by
 * setup.py.  Inputs are read with checked indexing, as seq[i] reads them in
 * Python, so a sequence shorter than its size arguments claim raises
 * IndexError. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* Largest n whose path table the kernels allocate. */
#define MAX_POINTS 24

PyDoc_STRVAR(module_doc,
"Compiled solver kernels.\n\
\n\
Runs the dynamic programs of ``_core_py`` over whole tables, each cell\n\
taking its candidates in the same order under the same strict comparison,\n\
so both lanes return bit-identical results, ties included.");

/* A new array of seq[0 .. size) as doubles, or NULL with an exception set.
 * An exact list is read in place within its length; anything else, and an
 * index past the end, goes through seq[i]. */
static double *
read_doubles(PyObject *seq, Py_ssize_t size)
{
    double *out = PyMem_New(double, size);
    if (out == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < size; i++) {
        PyObject *item;
        if (PyList_CheckExact(seq) && i < PyList_GET_SIZE(seq)) {
            item = PyList_GET_ITEM(seq, i);
            if (PyFloat_CheckExact(item)) {  /* runs no Python code */
                out[i] = PyFloat_AS_DOUBLE(item);
                continue;
            }
            Py_INCREF(item);
        }
        else {
            PyObject *key = PyLong_FromSsize_t(i);
            item = key == NULL ? NULL : PyObject_GetItem(seq, key);
            Py_XDECREF(key);
        }
        out[i] = item == NULL ? -1.0 : PyFloat_AsDouble(item);
        Py_XDECREF(item);
        if (out[i] == -1.0 && PyErr_Occurred()) {
            PyMem_Free(out);
            return NULL;
        }
    }
    return out;
}

/* A new list of the ints items[0 .. count), or NULL with an exception set. */
static PyObject *
int_list(const int *items, int count)
{
    PyObject *list = PyList_New(count);
    for (int i = 0; list != NULL && i < count; i++) {
        PyObject *item = PyLong_FromLong(items[i]);
        if (item == NULL) {
            Py_CLEAR(list);
        }
        else {
            PyList_SET_ITEM(list, i, item);
        }
    }
    return list;
}

/* 0 when n points fit the kernels' tables, else -1 with ValueError set. */
static int
check_points(int n)
{
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "need at least one point");
        return -1;
    }
    if (n > MAX_POINTS) {
        PyErr_SetString(PyExc_ValueError,
                        "subset table would exceed the kernel's memory budget");
        return -1;
    }
    return 0;
}

/* The Held-Karp path table.  dp[row * n + last] is the shortest path from
 * the mask's lowest point (its anchor) through the mask, ending at last;
 * a mask's cells read only masks that keep its anchor.  With `tour` set
 * only the masks holding point 0 are filled, mask at row mask >> 1;
 * otherwise every mask, at row mask.  A cell takes its candidates prev
 * rising under a strict comparison from INF.  If asked, vals[mask] is the
 * mask's closed tour and parent[cell] the winning prev + 1 (0 for none). */
static void
fill_paths(const double *d, int n, int tour, double *dp, double *vals,
           unsigned char *parent)
{
    Py_ssize_t full = (Py_ssize_t)1 << n, cells = (full >> tour) * n;
    int members[MAX_POINTS];
    for (Py_ssize_t idx = 0; idx < cells; idx++) {
        dp[idx] = INFINITY;
    }
    if (parent != NULL) {
        memset(parent, 0, cells);
    }
    if (vals != NULL) {
        vals[0] = 0.0;
    }
    for (Py_ssize_t mask = 1; mask < full; mask += 1 + tour) {
        int nm = 0;
        for (int i = 0; i < n; i++) {
            if ((mask >> i) & 1) {
                members[nm++] = i;
            }
        }
        int anchor = members[0];
        Py_ssize_t base = (mask >> tour) * n;
        if (nm == 1) {
            dp[base + anchor] = 0.0;
            if (vals != NULL) {
                vals[mask] = 0.0;
            }
            continue;
        }
        double best = INFINITY;
        for (int i = 1; i < nm; i++) {
            int last = members[i];
            Py_ssize_t pbase = ((mask ^ ((Py_ssize_t)1 << last)) >> tour) * n;
            double cur = INFINITY;
            int won = -1;
            for (int j = 0; j < nm; j++) {
                int prev = members[j];
                if (prev == last) {
                    continue;
                }
                double cand = dp[pbase + prev] + d[prev * n + last];
                if (cand < cur) {
                    cur = cand;
                    won = prev;
                }
            }
            dp[base + last] = cur;
            if (parent != NULL) {
                parent[base + last] = (unsigned char)(won + 1);
            }
            double closed = cur + d[last * n + anchor];
            if (closed < best) {
                best = closed;
            }
        }
        if (vals != NULL) {
            vals[mask] = best;
        }
    }
}

/* (best, order): the closing scan over the full mask's row of the tour
 * table, then the parent walk from its winner back to 0, reversed. */
static PyObject *
closed_tour(const double *d, int n, const double *dp, const unsigned char *parent)
{
    Py_ssize_t full = (Py_ssize_t)1 << n;
    double best = INFINITY;
    int best_last = -1;
    for (int j = 1; j < n; j++) {
        double cand = dp[((full - 1) >> 1) * n + j] + d[j * n];
        if (cand < best) {
            best = cand;
            best_last = j;
        }
    }
    int order[MAX_POINTS], start = MAX_POINTS;  /* filled back to front */
    Py_ssize_t mask = full - 1;
    int last = best_last;
    while (last != -1) {
        order[--start] = last;
        int prev = parent[(mask >> 1) * n + last] - 1;
        mask ^= (Py_ssize_t)1 << last;
        last = prev;
    }
    /* "N" passes on a NULL list's exception */
    return Py_BuildValue("(dN)", best, int_list(order + start, MAX_POINTS - start));
}

PyDoc_STRVAR(shortest_cycle_doc,
"shortest_cycle($module, /, dist, n)\n--\n\n\
Optimal closed tour over ``n`` points given a flat n*n distance matrix.");

static PyObject *
shortest_cycle(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"dist", "n", NULL};
    PyObject *dist;
    int n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oi:shortest_cycle", kwlist,
                                     &dist, &n)) {
        return NULL;
    }
    if (check_points(n) < 0) {
        return NULL;
    }
    if (n == 1) {
        return Py_BuildValue("(d[i])", 0.0, 0);
    }
    Py_ssize_t cells = ((Py_ssize_t)1 << n >> 1) * n;
    double *d = read_doubles(dist, (Py_ssize_t)n * n);
    if (d == NULL) {
        return NULL;
    }
    double *dp = PyMem_New(double, cells);
    unsigned char *parent = PyMem_New(unsigned char, cells);
    PyObject *result = NULL;
    if (dp == NULL || parent == NULL) {
        PyErr_NoMemory();
    }
    else {
        fill_paths(d, n, 1, dp, NULL, parent);
        result = closed_tour(d, n, dp, parent);
    }
    PyMem_Free(d);
    PyMem_Free(dp);
    PyMem_Free(parent);
    return result;
}

PyDoc_STRVAR(cycle_lengths_by_subset_doc,
"cycle_lengths_by_subset($module, /, dist, n)\n--\n\n\
Optimal tour length for every subset of the points, in one pass.");

static PyObject *
cycle_lengths_by_subset(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"dist", "n", NULL};
    PyObject *dist;
    int n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oi:cycle_lengths_by_subset",
                                     kwlist, &dist, &n)) {
        return NULL;
    }
    if (check_points(n) < 0) {
        return NULL;
    }
    Py_ssize_t full = (Py_ssize_t)1 << n;
    double *d = read_doubles(dist, (Py_ssize_t)n * n);
    if (d == NULL) {
        return NULL;
    }
    double *dp = PyMem_New(double, full * n);
    double *vals = PyMem_New(double, full);
    PyObject *result = NULL;
    if (dp == NULL || vals == NULL) {
        PyErr_NoMemory();
    }
    else {
        fill_paths(d, n, 0, dp, vals, NULL);
        result = PyList_New(full);
        for (Py_ssize_t mask = 0; result != NULL && mask < full; mask++) {
            PyObject *value = PyFloat_FromDouble(vals[mask]);
            if (value == NULL) {
                Py_CLEAR(result);
            }
            else {
                PyList_SET_ITEM(result, mask, value);
            }
        }
    }
    PyMem_Free(d);
    PyMem_Free(dp);
    PyMem_Free(vals);
    return result;
}

typedef struct {
    const double *values;
    int labels[MAX_POINTS];
    Py_ssize_t block_masks[MAX_POINTS];
    int best_labels[MAX_POINTS];
    double best_value;
    int n;
    int k;
} PartitionSearch;

/* Labels point i onwards as a restricted-growth string: point i joins one
 * of the `used` open blocks or opens the next, while the running maximum
 * stays below the incumbent. */
static void
descend(PartitionSearch *s, int i, int used, double cur_max)
{
    if (i == s->n) {
        if (cur_max < s->best_value) {
            s->best_value = cur_max;
            for (int j = 0; j < s->n; j++) {
                s->best_labels[j] = s->labels[j];
            }
        }
        return;
    }
    int limit = used < s->k ? used + 1 : s->k;
    for (int lab = 0; lab < limit; lab++) {
        Py_ssize_t new_mask = s->block_masks[lab] | ((Py_ssize_t)1 << i);
        double v = s->values[new_mask];
        double new_max = cur_max >= v ? cur_max : v;
        if (new_max >= s->best_value) {
            continue;
        }
        Py_ssize_t old = s->block_masks[lab];
        s->block_masks[lab] = new_mask;
        s->labels[i] = lab;
        descend(s, i + 1, lab == used ? used + 1 : used, new_max);
        s->block_masks[lab] = old;
    }
}

PyDoc_STRVAR(min_max_partition_doc,
"min_max_partition($module, /, values, n, k)\n--\n\n\
Minimize the maximum subset value over partitions into <= k blocks.");

static PyObject *
min_max_partition(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"values", "n", "k", NULL};
    PyObject *values;
    int n, k;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oii:min_max_partition",
                                     kwlist, &values, &n, &k)) {
        return NULL;
    }
    if (check_points(n) < 0) {
        return NULL;
    }
    if (k < 1) {
        PyErr_SetString(PyExc_ValueError, "need at least one block");
        return NULL;
    }
    if (k > n) {
        k = n;
    }
    double *table = read_doubles(values, (Py_ssize_t)1 << n);
    if (table == NULL) {
        return NULL;
    }
    PartitionSearch s = {.values = table, .best_value = INFINITY, .n = n, .k = k};
    for (int i = 0; i < n; i++) {
        s.best_labels[i] = -1;
    }
    descend(&s, 0, 0, 0.0);
    PyMem_Free(table);
    if (s.best_labels[0] < 0) {
        PyErr_SetString(PyExc_ValueError, "no partition lies below the limit");
        return NULL;
    }
    return Py_BuildValue("(dN)", s.best_value, int_list(s.best_labels, n));
}

static PyMethodDef core_methods[] = {
    {"shortest_cycle", (PyCFunction)(void (*)(void))shortest_cycle,
     METH_VARARGS | METH_KEYWORDS, shortest_cycle_doc},
    {"cycle_lengths_by_subset", (PyCFunction)(void (*)(void))cycle_lengths_by_subset,
     METH_VARARGS | METH_KEYWORDS, cycle_lengths_by_subset_doc},
    {"min_max_partition", (PyCFunction)(void (*)(void))min_max_partition,
     METH_VARARGS | METH_KEYWORDS, min_max_partition_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = module_doc,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    return PyModuleDef_Init(&core_module);
}
